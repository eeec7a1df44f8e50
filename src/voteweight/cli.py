"""Batch front-end: run simulations from JSON configs and verification suites.

Exit codes: 0 success, 1 usage/config error, 2 check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .adversaries import CondorcetSplitSource, WinnerPunishingSource
from .core import SUITES, check_alternatives, whole_number
from .errors import ConfigError
from .harness import (
    FileSource,
    IIDRandomSource,
    Trace,
    best_voter,
    monte_carlo_regret,
    regret,
    run_episode,
)
from .rules import (ConstantUniform, DeterministicCopeland, DeterministicPositional, Duple,
                    RandomizedCopeland, RandomizedPositional, Unilateral, position_selector)
from .schemes import SchemeConfig


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class ConfigObject(dict):
    """A config's JSON object; ``twice`` is the first key its text repeats, or None."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.twice = next((key for key in keys if keys.count(key) > 1), None)


def parse_section(section: str, spec, builder):
    """``builder(**spec)`` once ``spec`` is an object whose keys are among the builder's
    parameters and include each one with no default; a table of builders is keyed by "kind"."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{section} must be an object, got {spec!r}")
    if getattr(spec, "twice", None) is not None:
        raise ConfigError(f"key {spec.twice!r} given twice in {section}")
    if isinstance(builder, dict):
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in builder:
            raise ConfigError(f"{section} kind must be one of {', '.join(builder)}, got {kind!r}")
        section, builder = f"{section} {kind!r}", builder[kind]
        spec = {key: value for key, value in spec.items() if key != "kind"}
    code = builder.__code__  # not inspect.signature, whose first call can take milliseconds
    keys = code.co_varnames[:code.co_argcount]  # those before the defaults are required
    for key in [*spec, *keys[:len(keys) - len(builder.__defaults__ or ())]]:
        if key not in keys or key not in spec:
            raise ConfigError(f"{'missing' if key in keys else 'unknown'} key {key!r} in {section}")
    return builder(**spec)


def _simulation(rule, source, n, m, T, scheme={}, seed=0, trials=1, feedback=None,
                out_dir=".", trace_csv="trace.csv", summary_json="summary.json"):
    """A simulate config's top level, each key a parameter; SchemeConfig is what checks n."""
    m = check_alternatives(whole_number(m, "m"))
    T = whole_number(T, "T")
    seed = whole_number(seed, "seed")
    trials = whole_number(trials, "trials")
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    if trials > sys.maxsize:  # such a run would play episodes until killed, writing nothing
        raise ConfigError(f"trials must be at most {sys.maxsize}, got {trials}")
    paths = {"out_dir": out_dir, "trace_csv": trace_csv, "summary_json": summary_json}
    for key, path in paths.items():
        if not isinstance(path, str) or not path:
            raise ConfigError(f"{key} must be a non-empty path, got {path!r}")
    rule = parse_section("rule", rule, {
        "deterministic_positional": lambda scores: DeterministicPositional(scores),
        "randomized_positional": lambda scores: RandomizedPositional(scores),
        "deterministic_copeland": lambda: DeterministicCopeland(),
        "randomized_copeland": lambda: RandomizedCopeland(),
        "constant_uniform": lambda: ConstantUniform(),
        "duple": lambda a, b: Duple(whole_number(a, "a"), whole_number(b, "b")),
        "unilateral": lambda position: Unilateral(
            position_selector(whole_number(position, "position"))),
    })
    scheme = parse_section(
        "scheme", scheme, lambda kind="full_info", eta=None: SchemeConfig(kind, n, T, eta))
    if feedback is not None and feedback != scheme.feedback:
        raise ConfigError(f"scheme kind {scheme.kind!r} takes {scheme.feedback!r} "
                          f"feedback, not {feedback!r}")
    source = parse_section("source", source, {
        "thm3": lambda: WinnerPunishingSource(rule, m),
        "thm5": lambda delta=None: CondorcetSplitSource(rule, m, delta),
        "iid_random": lambda: IIDRandomSource(m),
        "file": lambda path: FileSource(path),
    })
    if source.m != m:  # only a file can disagree: its widest round fixes m
        raise ConfigError(f"m={m}, but the sequence file's rounds have at most {source.m} "
                          f"alternatives; set m to {source.m}")
    return scheme, rule, source, seed, trials, paths


def _write_trace_csv(path: str, trace: Trace) -> None:
    """The bytes ``csv.writer`` would write (CRLF, :func:`_fmt` numbers), one format per row."""
    cumulative_scheme = np.cumsum(trace.scheme_loss)
    best = np.cumsum(trace.per_voter_loss, axis=0).min(axis=1)
    columns = (trace.scheme_loss, cumulative_scheme, best, cumulative_scheme - best)
    rows = zip(range(1, len(best) + 1), *(c.tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write("round,scheme_expected_loss,cumulative_scheme_loss,"
                 "best_voter_cumulative_loss_so_far,cumulative_regret\r\n")
        fh.writelines("%d,%.12g,%.12g,%.12g,%.12g\r\n" % row for row in rows)


def cmd_simulate(config_path: str, out_dir: Optional[str]) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh, object_pairs_hook=ConfigObject)
    except (OSError, ValueError, RecursionError) as exc:  # not JSON, not UTF-8, nested too deep
        print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
        return 1

    # Everything is validated and computed before any output is written.
    try:
        scheme, rule, source, seed, trials, paths = parse_section("config", cfg, _simulation)
        destination = out_dir or paths["out_dir"]
        trace_path = os.path.join(destination, paths["trace_csv"])
        summary_path = os.path.join(destination, paths["summary_json"])
        # The summary would overwrite the trace: one path, a symlink or a hard link.
        if os.path.realpath(trace_path) == os.path.realpath(summary_path) or (
                os.path.exists(trace_path) and os.path.exists(summary_path)
                and os.path.samefile(trace_path, summary_path)):
            raise ConfigError(f"trace_csv {paths['trace_csv']!r} and summary_json "
                              f"{paths['summary_json']!r} name the same file")
        first = run_episode(scheme, rule, source, seed=seed)
        mean, stderr = monte_carlo_regret(
            lambda s: first if s == seed else run_episode(scheme, rule, source, seed=s),
            trials, seed)
        if scheme.kind == "deterministic_unilateral" and not rule.decomposes:
            print("warning: deterministic weights with a rule that does not decompose across "
                  "voters: the round-for-round equivalence guarantee is void", file=sys.stderr)
        final = regret(first)
        summary = {
            "final_regret": float(_fmt(final)),
            "regret_bound": float(_fmt(scheme.regret_bound)),
            "mean_regret": float(_fmt(mean)),
            "stderr_regret": float(_fmt(stderr)),
            "trials": trials,
            "seed": seed,
            "best_voter_cumulative_loss": float(_fmt(best_voter(first)[1])),
            "config": cfg,
        }
        summary_text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # every package error, numpy's size refusals, JSON's NaN refusal
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:  # both paths are made ready before either file is written
        for path in (trace_path, summary_path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
        for path in (trace_path, summary_path):
            if os.path.isdir(path):
                raise IsADirectoryError(f"{path!r} is a directory")
        _write_trace_csv(trace_path, first)
        with open(summary_path, "w") as fh:
            fh.write(summary_text + "\n")
    except OSError as exc:
        print(f"error: cannot write the outputs to {destination}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {trace_path} and {summary_path}")
    print(f"final regret {_fmt(final)}, mean over {trials} trials "
          f"{_fmt(mean)} +/- {_fmt(stderr)} (bound {_fmt(scheme.regret_bound)})")
    return 0


class UsageParser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, which here means a failed check
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def cmd_verify(suite: str, seed: int, profiles: int) -> int:
    from .checks import run_suite, suite_seed  # simulate loads none of the checks
    try:  # refused before any check runs; a check's own error is not a usage error
        suite_seed(seed, profiles)
    except ValueError as exc:
        print(f"error: verify --seed {seed} --profiles {profiles}: {exc}", file=sys.stderr)
        return 1
    results = run_suite(suite, seed=seed, profiles=profiles)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += not res.passed
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = UsageParser(  # its subparsers are built from its class
        prog="voteweight",
        description="Repeated weighted voting under no-regret learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run episodes from a JSON config")
    p_sim.add_argument("--config", required=True, help="path to the JSON config")
    p_sim.add_argument("--out-dir", default=None, help="output directory override")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--profiles", type=int, default=100)

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out_dir)
    return cmd_verify(args.suite, args.seed, args.profiles)


if __name__ == "__main__":
    sys.exit(main())
