"""One workload round in a fresh process: set up, run, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
        [--setup-only] [--trace] [--no-check]

`--spawned` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` runs from process start to the first measured call and
covers interpreter start, imports and building the inputs. Peak RSS is read
when the timed run ends, before any check runs. The last stdout line is one
JSON object; a traced round's report also goes to
perfbench_out/trace-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Capture, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from gridsynth.kernel import BACKEND  # noqa: E402

OUT_ROOT = ROOT / "perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-check", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawned
    report = {"backend": BACKEND, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    out_dir = OUT_ROOT / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    out_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    counts = layers.install(tracer) if tracer else None
    capture = Capture()
    kept = {} if args.no_check else workload.capture(capture, inputs)

    t0 = time.perf_counter()
    output = workload.run(inputs, out_dir)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    capture.uninstall()
    if tracer:
        tracer.uninstall()
    report.update(run_s=run_s, peak_rss_mb=peak_rss_mb, **workload.summary(output))
    tally = checks.Tally()
    if not args.no_check:
        report.update(workload.check(output, out_dir, kept, inputs, tally))
    report.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures[:20])
    if tracer:
        report["per_layer"] = layers.metrics(tracer, counts, run_s)
        trace_file = OUT_ROOT / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
