"""The benchmark's workloads: seeded inputs, `simulate` configs and output checks.

Each workload writes its config (and, for `file_wide`, its JSONL rounds) from
the workload seed before anything is timed; the program receives only these
files. Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

BORDA = {"kind": "randomized_positional", "scores": "borda"}


# The `simulate` config of each workload, without its seed.
WORKLOADS = {
    "iid_full": {
        "rule": BORDA, "scheme": {"kind": "full_info"}, "n": 10, "m": 3,
        "T": 5000, "trials": 4, "feedback": "full", "source": {"kind": "iid_random"},
    },
    "iid_partial": {
        "rule": BORDA, "scheme": {"kind": "partial_info"}, "n": 10, "m": 3,
        "T": 5000, "trials": 4, "feedback": "partial", "source": {"kind": "iid_random"},
    },
    "thm5_wide": {
        "rule": {"kind": "randomized_copeland"}, "scheme": {"kind": "deterministic_unilateral"},
        "n": 1001, "m": 3, "T": 60, "trials": 1, "feedback": "full", "source": {"kind": "thm5"},
    },
    "file_wide": {
        "rule": BORDA, "scheme": {"kind": "deterministic_unilateral"}, "n": 200, "m": 6,
        "T": 300, "trials": 2, "feedback": "full",
        "source": {"kind": "file", "path": "rounds.jsonl"},
    },
}


def write_inputs(name: str, seed: int, directory: Path) -> Path:
    """Write the workload's config (and its JSONL rounds) and return the config path."""
    cfg = json.loads(json.dumps(WORKLOADS[name]))
    cfg["seed"] = seed
    if cfg["source"]["kind"] == "file":
        rounds_path = directory / cfg["source"]["path"]
        _write_rounds(rounds_path, cfg["n"], cfg["T"], np.random.default_rng(seed))
        cfg["source"]["path"] = str(rounds_path)
    path = directory / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def _write_rounds(path: Path, n: int, T: int, rng: np.random.Generator) -> None:
    with open(path, "w") as fh:
        for _ in range(T):
            m = int(rng.integers(4, 7))
            rankings = np.argsort(rng.random((n, m)), axis=1).tolist()
            losses = rng.random(m).tolist()
            fh.write(json.dumps({"rankings": rankings, "losses": losses}) + "\n")


def hedge_reference_regret(path: str, n: int, T: int) -> float:
    """Regret of the deterministic Hedge scheme under randomized Borda, computed
    with plain floats from the JSONL rounds.

    Randomized Borda is linear in the profile, so the weighted profile's
    expected loss is the weight-averaged loss of the voters' own rankings.
    """
    eta = math.sqrt(2.0 * math.log(n) / T)
    cumulative = [0.0] * n
    scheme_total = 0.0
    with open(path) as fh:
        for _, line in zip(range(T), fh):
            rnd = json.loads(line)
            losses = rnd["losses"]
            m = len(losses)
            norm = m * (m - 1) / 2.0
            voter = [
                sum((m - 1 - pos) * losses[a] for pos, a in enumerate(ranking)) / norm
                for ranking in rnd["rankings"]
            ]
            low = min(cumulative)
            w = [math.exp(-eta * (c - low)) for c in cumulative]
            scheme_total += sum(wi * vi for wi, vi in zip(w, voter)) / sum(w)
            cumulative = [c + v for c, v in zip(cumulative, voter)]
    return scheme_total - min(cumulative)


def reference_regret(cfg: dict) -> float | None:
    """The scalar reference a `file` workload's regret must match; computed
    once per run, before timing."""
    if cfg["source"]["kind"] != "file":
        return None
    return hedge_reference_regret(cfg["source"]["path"], cfg["n"], cfg["T"])


def _reject_constant(token: str):
    raise ValueError(f"non-finite literal {token} in summary.json")


def check_outputs(cfg: dict, exit_code: int, out_dir: Path,
                  reference: float | None) -> list[tuple[str, bool, str]]:
    """Output checks of one `simulate` call, as (name, passed, detail)."""
    checks = [("exit_code", exit_code == 0, f"simulate exited {exit_code}")]
    if exit_code != 0:
        return checks
    try:
        summary = json.loads((out_dir / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        checks.append(("strict_json", True, "summary.json is strict JSON"))
    except (OSError, ValueError) as exc:
        return checks + [("strict_json", False, str(exc))]

    with open(out_dir / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    T = cfg["T"]
    checks.append(("trace_rows", len(rows) == T, f"{len(rows)} data rows for T={T}"))
    # Both are printed to 12 significant digits; a different summation order
    # may move the last printed digit, so they must agree to 1e-9 relative.
    last = float(rows[-1]["cumulative_regret"]) if rows else math.nan
    final = summary["final_regret"]
    checks.append(("trace_matches_summary", math.isclose(last, final, rel_tol=1e-9, abs_tol=1e-9),
                   f"last cumulative_regret {last!r} vs final_regret {final!r}"))

    # The ceilings follow the scheme kind, not the summary's regret_bound,
    # which follows the separate `feedback` flag.
    n, kind, source = cfg["n"], cfg["scheme"]["kind"], cfg["source"]["kind"]
    mean = summary["mean_regret"]
    if kind == "full_info":
        bound = 2 * math.sqrt(2 * T * math.log(n))
        checks.append(("hedge_ceiling", mean <= bound, f"mean regret {mean} <= {bound:.3f}"))
    elif kind == "partial_info":
        bound = 2 * math.sqrt(2 * T * n * math.log(n))
        checks.append(("exp3_ceiling", mean <= bound, f"mean regret {mean} <= {bound:.3f}"))
    elif source == "thm5":
        m = cfg["m"]
        floor = T * (2.0 / (m * (m - 1))) / 6.0
        checks.append(("thm5_floor", final >= floor, f"regret {final} >= {floor:.6f}"))
    elif source == "file":
        checks.append(("hedge_reference", math.isclose(final, reference, rel_tol=1e-9),
                       f"final regret {final!r} vs scalar reference {reference!r}"))
    else:
        raise ValueError(f"no regret check for scheme {kind!r} on source {source!r}")
    return checks
