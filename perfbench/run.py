"""Benchmark entry point.

    python3 perfbench/run.py --workload build|search-hot|search-cold|ingest \
        --seed N --seconds S --trace 0|1

Builds nothing: the engine is the Python package beside this directory.
Prints one line per named figure (name, value, unit), a run record
(nproc, 1-min load at start and end, seed), and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Working files live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "storage_bytes_per_input_byte": "ratio",
}
WORKLOADS = ("build", "search-hot", "search-cold", "ingest")
DEFAULT_DOCS = 2000


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=DEFAULT_DOCS,
                    help="corpus rows (smaller for the benchmark's tests)")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "donkey_ray")):
        print(f"no donkey_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)

    from perfbench import common, workloads

    common.pin_to_nproc()
    load0 = os.getloadavg()[0]
    work = os.path.join(common.WORK,
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    run = workloads.Run(args.workload, args.seed, args.seconds, args.docs,
                        work)
    try:
        setup_s = workloads.setup(run)
        if args.trace:
            from perfbench import traced

            metrics, named = traced.RUNNERS[args.workload](run)
            units = traced.UNITS
        else:
            metrics, named = workloads.RUNNERS[args.workload](run)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        if run.server is not None:
            run.server.kill()
        if run.ray is not None:
            run.ray.stop()
        shutil.rmtree(work, ignore_errors=True)

    named["setup_s"] = (setup_s, "s")
    named.update((k, (v, "s")) for k, v in run.setup_parts.items())
    named["error_rate"] = (run.failed / max(run.attempted, 1), "fraction")
    for name, (value, unit) in named.items():
        print(f"{args.workload:12s} {name:34s} {value:14.6g} {unit}")
    for e in run.errors:
        print(f"FAILED: {e}")
    print(f"# run workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} nproc={common.nproc()} "
          f"load1_start={load0:.2f} load1_end={os.getloadavg()[0]:.2f}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
