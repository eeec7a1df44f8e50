"""voteweight benchmark: `simulate` workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed fixes the workload's inputs,
which are written before any timing. Each `simulate` call (a job) runs in a
fresh child process, one at a time, with the program imported from `src/` and
BLAS/OpenMP pinned to one thread. Jobs repeat until S seconds have passed;
every job's outputs are checked, and each metric is the median over jobs.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
jobs. `--trace 1` alternates untraced and traced jobs and reports the
per-layer metrics, split by module from spans recorded around calls into each
module. The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the share of
output checks that failed. The full record, with the environment, is written
to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import PER_LAYER_UNITS
from workloads import WORKLOADS, check_outputs, reference_regret, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
RESULTS = HERE / "results"
MIN_JOBS = 3
JOB_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MiB"}


class BenchmarkError(Exception):
    pass


def environment() -> dict:
    src = ROOT / "src" / "voteweight"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Runs jobs of one workload and keeps the tally of output checks."""

    def __init__(self, cfg: dict, config_path: Path, reference: float | None, run_tag: str):
        self.cfg = cfg
        self.config_path = config_path
        self.reference = reference
        self.run_tag = run_tag
        self.env = child_env()
        self.jobs = 0
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")

    def job(self, mode: str) -> dict:
        out = WORK / f"job-{self.jobs:03d}-{mode}"
        self.jobs += 1
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), "--mode", mode,
             "--config", str(self.config_path), "--out-dir", str(out),
             "--run-id", f"{self.run_tag}-{out.name}"],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
        result_path = out / "job.json"
        if proc.returncode != 0 or not result_path.exists():
            raise BenchmarkError(f"{mode} job failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        imported = Path(result["voteweight_file"]).resolve()
        if ROOT / "src" not in imported.parents:
            raise BenchmarkError(f"voteweight imported from {imported}, not this checkout")
        for name, passed, detail in check_outputs(self.cfg, result["exit_code"], out, self.reference):
            self.check(f"{out.name}.{name}", passed, detail)
        return result


def run_jobs(runner: Runner, modes: tuple[str, ...], seconds: float) -> dict[str, list[dict]]:
    """Cycle through `modes` until `seconds` have passed and each ran MIN_JOBS times."""
    done: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or min(len(v) for v in done.values()) < MIN_JOBS):
        for mode in modes:
            done[mode].append(runner.job(mode))
    return done


def median_of(results: list[dict], key: str) -> float:
    values = [r[key] for r in results if r["exit_code"] == 0 and r[key] is not None]
    if not values:
        raise BenchmarkError(f"no successful job measured {key}")
    return statistics.median(values)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    jobs = run_jobs(runner, ("plain",), seconds)["plain"]
    for r in jobs:
        if r["exit_code"] == 0:
            r["rounds_per_s"] = r["episodes"] * runner.cfg["T"] / r["episode_s"]
    values = {name: median_of(jobs, name) for name in END_TO_END_UNITS}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, {"jobs": jobs}


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    memory = runner.job("memory")
    if memory["trace_kb_per_round"] is None:
        raise BenchmarkError("the memory job measured no episode")
    jobs = run_jobs(runner, ("plain", "traced"), seconds)
    plain, traced = jobs["plain"], [r for r in jobs["traced"] if r["exit_code"] == 0]
    if not traced:
        raise BenchmarkError("no traced job succeeded")
    job_s = median_of(plain, "job_s")
    overhead_s = max(median_of(traced, "wall_s") - job_s, 0.0)
    for r in traced:
        # Every span's self time is attributed to exactly one span, so the
        # self times add up to the traced wall time up to the wrapper cost.
        gap = abs(r["wall_s"] - r["self_total_s"])
        runner.check("self_times_cover_wall", gap <= overhead_s + 1e-3,
                     f"|wall {r['wall_s']:.6f} - sum of self {r['self_total_s']:.6f}| "
                     f"<= overhead {overhead_s:.6f} + 1 ms")
    values = {name: statistics.median(r["metrics"][name] for r in traced)
              for name in traced[0]["metrics"]}
    values["harness.trace_kb_per_round"] = memory["trace_kb_per_round"]
    values["trace.overhead_ratio"] = median_of(traced, "wall_s") / job_s
    metrics = {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]} for name in values}
    record = {
        "memory_job": memory,
        "plain_jobs": plain,
        "traced_jobs": jobs["traced"],
        "traced_setup_s": median_of(traced, "setup_s"),
        "traced_episode_s": median_of(traced, "episode_s"),
        "missing_targets": traced[0]["missing_targets"],
    }
    return metrics, record


def self_check(metrics: dict, declared: list[dict]) -> None:
    """The printed names and units must be exactly those BENCHMARK.json declares."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voteweight" / "cli.py").is_file():
        print(f"error: no voteweight sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("error: workloads differ from BENCHMARK.json", file=sys.stderr)
        return 1
    workload = args.workload
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    config_path = write_inputs(workload, args.seed, WORK)
    cfg = json.loads(config_path.read_text())
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(cfg, config_path, reference_regret(cfg), tag)
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")

    try:
        if args.trace:
            metrics, record = per_layer(runner, args.seconds)
            self_check(metrics, spec["per_layer"])
        else:
            metrics, record = end_to_end(runner, args.seconds)
            self_check(metrics, spec["end_to_end"])
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"# FAIL {failure}")
    for name, m in metrics.items():
        print(f"# {workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"# {workload} traced setup_s = {record['traced_setup_s']:.6g} s, "
              f"traced run_episode time = {record['traced_episode_s']:.6g} s")
        if record["missing_targets"]:
            print(f"# not traced, absent from the program: {record['missing_targets']}")
    print(f"# {workload} fail_frac = {failed}/{runner.attempted} over {runner.jobs} jobs")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(
        {"workload": workload, "seed": args.seed, "seconds": args.seconds,
         "env": env, "config": cfg, "metrics": metrics, "attempted": runner.attempted,
         "failures": runner.failures, **record}, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
