"""One `voteweight simulate` call in a fresh process, measured one of three ways.

    python3 perfbench/job.py --mode plain|traced|memory --config C --out-dir D

`plain` wraps one coarse timer around each `voteweight.cli.run_episode` call.
`traced` installs the span wrappers of `spans.py` and writes the spans to
`D/spans.csv.gz`. `memory` measures with `tracemalloc` the bytes the first
episode's `Trace` retains. Each writes its measurements to `D/job.json`;
the simulate exit code is recorded there, not returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import tracemalloc
from pathlib import Path

import voteweight
import voteweight.cli as cli

import spans


def _simulate(config: str, out_dir: str) -> tuple[int, float, float]:
    start = time.perf_counter()
    code = cli.main(["simulate", "--config", config, "--out-dir", out_dir])
    return code, start, time.perf_counter()


def plain(config: str, out_dir: str) -> dict:
    episodes = []
    run_episode = cli.run_episode

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        trace = run_episode(*args, **kwargs)
        episodes.append((t0, time.perf_counter()))
        return trace

    cli.run_episode = timed
    code, start, end = _simulate(config, out_dir)
    return {
        "exit_code": code,
        "job_s": end - start,
        "setup_s": episodes[0][0] - start if episodes else None,
        "episode_s": sum(e - s for s, e in episodes),
        "episodes": len(episodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(config: str, out_dir: str, run_id: str) -> dict:
    tracer = spans.Tracer()
    missing = spans.install(tracer, voteweight)
    root = tracer.wrap(spans.ROOT, cli.main)
    start = time.perf_counter()
    code = root(["simulate", "--config", config, "--out-dir", out_dir])
    wall = time.perf_counter() - start
    tracer.write(Path(out_dir) / "spans.csv.gz", run_id)
    root_start = tracer.spans[0][1]
    first_episode = next((s[1] for s in tracer.spans if s[0] == "harness.run_episode"), None)
    return {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": first_episode - root_start if first_episode is not None else None,
        "missing_targets": missing,
        **spans.derive(tracer.spans),
    }


def memory(config: str, out_dir: str) -> dict:
    retained = []
    run_episode = cli.run_episode

    def measured(*args, **kwargs):
        if retained:
            return run_episode(*args, **kwargs)
        tracemalloc.start()
        try:
            trace = run_episode(*args, **kwargs)
            retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        return trace

    cli.run_episode = measured
    code, _, _ = _simulate(config, out_dir)
    T = json.loads(Path(config).read_text())["T"]
    return {"exit_code": code,
            "trace_kb_per_round": retained[0] / T / 1000.0 if retained else None}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced", "memory"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    if args.mode == "plain":
        result = plain(args.config, args.out_dir)
    elif args.mode == "traced":
        result = traced(args.config, args.out_dir, args.run_id)
    else:
        result = memory(args.config, args.out_dir)
    result["voteweight_file"] = voteweight.__file__
    Path(args.out_dir, "job.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
