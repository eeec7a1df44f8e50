"""Span recording for the traced run, and the per-layer metrics derived from it.

Timing wrappers are installed from here, on the names each voteweight module
looks up at call time, so nothing under `src/` changes. A span is
(name, start, end, parent index, failed); spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict

ROOT = "cli.main"

# Span name -> the attributes, relative to the voteweight package, that the
# program calls through. Constructors count as calls of the source class.
TARGETS = {
    "harness.run_episode": ["cli.run_episode"],
    "harness.source_build": ["cli.FileSource", "cli.IIDRandomSource",
                             "cli.CondorcetSplitSource", "cli.WinnerPunishingSource"],
    "harness.aggregate": ["cli.regret", "cli.voter_totals",
                          "harness.best_voter", "harness.voter_totals"],
    "adversaries.emit": ["harness.FileSource.emit", "harness.IIDRandomSource.emit",
                         "harness.CondorcetSplitSource.emit",
                         "harness.WinnerPunishingSource.emit"],
    "adversaries.partition": ["adversaries.majority_prefix_partition"],
    "rules.per_voter_losses": ["harness.per_voter_losses", "schemes.per_voter_losses"],
    "rules.unanimous_distribution": ["harness.unanimous_distribution",
                                     "rules.unanimous_distribution"],
    "core.anonymize": ["harness.anonymize", "adversaries.anonymize"],
    "core.sample": ["schemes.sample_index", "harness.sample_alternative"],
    "schemes.voter_distribution": ["harness.voter_distribution"],
    "schemes.act": ["harness.act"],
    "schemes.update": ["harness.full_info_update", "harness.partial_info_update"],
}
EVALUATE = "rules.evaluate"
MODULES = ("cli", "harness", "adversaries", "rules", "schemes", "core")

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "harness.episode_self_s": "s",
    "harness.source_build_s": "s",
    "harness.source_builds": "count",
    "harness.aggregate_s": "s",
    "harness.trace_kb_per_round": "kB/round",
    "adversaries.emit_s": "s",
    "adversaries.emit_calls": "count",
    "adversaries.partition_s": "s",
    "rules.per_voter_s": "s",
    "rules.unanimous_lookups": "count",
    "rules.unanimous_evals": "count",
    "rules.cache_hit_ratio": "ratio",
    "rules.profile_eval_s": "s",
    "rules.profile_evals": "count",
    "core.anonymize_s": "s",
    "core.anonymize_calls": "count",
    "core.sample_s": "s",
    "core.sample_calls": "count",
    "schemes.distribution_s": "s",
    "schemes.act_s": "s",
    "schemes.update_s": "s",
    "schemes.update_calls": "count",
    **{f"{module}.errors": "count" for module in MODULES},
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Collects spans from the wrappers it hands out; single-threaded."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                spans[idx] = (name, start, clock(), parent, failed)
                stack.pop()

        return traced

    def write(self, path, run_id: str) -> None:
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span", "name", "start", "end", "parent", "failed"])
            for idx, (name, start, end, parent, failed) in enumerate(self.spans):
                writer.writerow([run_id, idx, name, repr(start), repr(end), parent, int(failed)])


def install(tracer: Tracer, package) -> list[str]:
    """Wrap every target found in `package`; return the attribute paths not found."""
    missing = []
    for name, paths in TARGETS.items():
        for path in paths:
            *owner_path, attr = path.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                missing.append(path)
                continue
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    rules = package.rules
    for cls in vars(rules).values():
        if (isinstance(cls, type) and issubclass(cls, rules.VotingRule)
                and "evaluate" in vars(cls)):
            cls.evaluate = tracer.wrap(EVALUATE, cls.evaluate)
    return missing


def derive(spans: list) -> dict:
    """Per-layer self times, inclusive times and counts from one run's spans.

    Inclusive times count a span only when its parent has another name, so a
    rule that evaluates its components, or `regret` calling `best_voter`, is
    not counted twice. An `evaluate` called from `unanimous_distribution` is
    a per-voter cache miss; any other outermost `evaluate` (the episode's
    weighted profile, or an adversary's) counts as a profile evaluation.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    lookup_evals = profile_evals = 0
    profile_eval_s = 0.0
    for idx, (name, start, end, parent, failed) in enumerate(spans):
        dur = end - start
        parent_name = spans[parent][0] if parent >= 0 else None
        calls[name] += 1
        self_s[name] += dur - child[idx]
        errors[name.split(".")[0]] += failed
        if parent_name != name:
            incl[name] += dur
        if name == EVALUATE:
            if parent_name == "rules.unanimous_distribution":
                lookup_evals += 1
            elif parent_name != EVALUATE:
                profile_evals += 1
                profile_eval_s += dur
    lookups = calls["rules.unanimous_distribution"]
    out = {
        "cli.self_s": self_s[ROOT],
        "harness.episode_self_s": self_s["harness.run_episode"],
        "harness.source_build_s": incl["harness.source_build"],
        "harness.source_builds": calls["harness.source_build"],
        "harness.aggregate_s": incl["harness.aggregate"],
        "adversaries.emit_s": incl["adversaries.emit"],
        "adversaries.emit_calls": calls["adversaries.emit"],
        "adversaries.partition_s": incl["adversaries.partition"],
        "rules.per_voter_s": incl["rules.per_voter_losses"],
        "rules.unanimous_lookups": lookups,
        "rules.unanimous_evals": lookup_evals,
        "rules.cache_hit_ratio": 1.0 - lookup_evals / lookups if lookups else 0.0,
        "rules.profile_eval_s": profile_eval_s,
        "rules.profile_evals": profile_evals,
        "core.anonymize_s": incl["core.anonymize"],
        "core.anonymize_calls": calls["core.anonymize"],
        "core.sample_s": incl["core.sample"],
        "core.sample_calls": calls["core.sample"],
        "schemes.distribution_s": incl["schemes.voter_distribution"],
        "schemes.act_s": self_s["schemes.act"],
        "schemes.update_s": incl["schemes.update"],
        "schemes.update_calls": calls["schemes.update"],
    }
    for module in MODULES:
        out[f"{module}.errors"] = errors[module]
    return {"metrics": out, "self_total_s": sum(self_s.values()),
            "episode_s": incl["harness.run_episode"]}
