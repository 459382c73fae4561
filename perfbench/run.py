"""Benchmark entry point: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs building. Each round
runs in a fresh single-threaded worker process (`worker.py`), so caches never
carry over from one round to the next.

--trace 0 runs whole rounds, checked, until the next one would overrun
--seconds (always at least one), and reports the end-to-end metrics as
medians over the rounds. `setup_s` is the median over at least nine process
set-ups: the rounds' own plus set-up-only processes.

--trace 1 runs one untraced round and then one traced round, and reports the
per-layer metrics of the traced round with `trace.overhead_s`, the traced
`run_s` minus the untraced one. The traced round's report is also written to
perfbench_out/trace-<workload>.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("maze-desk", "minatar-search", "compress-corpus")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "dl_saved_nats": "nats",
    "tasks_solved": "tasks",
}
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker(args: list, deadline: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(WORKER), *args, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} overran the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(name: str, seed: int, seconds: int, deadline: float):
    base = ["--workload", name, "--seed", str(seed)]
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append(_worker(base, deadline))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "dl_saved_nats": statistics.median(r["dl_saved_nats"] for r in rounds),
        "tasks_solved": statistics.median(r["tasks_solved"] for r in rounds),
    }
    # Rounds of one pinned workload must agree on what they computed.
    same = all(
        r[k] == rounds[0][k] for r in rounds for k in ("dl_saved_nats", "tasks_solved")
    )
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    info = {"backend": rounds[0]["backend"], "rounds": len(rounds), "setup_samples": len(setups)}
    return rounds, metrics, same, info


def _traced(name: str, seed: int, deadline: float):
    base = ["--workload", name, "--seed", str(seed)]
    plain = _worker(base + ["--no-check"], deadline)
    traced = _worker(base + ["--trace"], deadline)
    metrics = traced["per_layer"]
    metrics["trace.overhead_s"] = {"value": traced["run_s"] - plain["run_s"], "unit": "s"}
    info = {"backend": traced["backend"], "untraced_run_s": plain["run_s"]}
    return [traced], metrics, True, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gridsynth" / "__init__.py").is_file():
        print(f"error: no gridsynth source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            rounds, metrics, same, info = _traced(args.workload, args.seed, deadline)
        else:
            rounds, metrics, same, info = _end_to_end(
                args.workload, args.seed, args.seconds, deadline
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for label in r["failures"]:
            print(f"FAILED {label}")
    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(info))
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  checks: {attempted} attempted, {failed} failed")
    result = {
        "correct": same and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
