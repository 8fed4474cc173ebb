"""Benchmark of the conal command-line interface.

Run from the repository root:

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times the workload with tracing off and reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from a
traced run.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable table goes to
stderr, and the full record (environment stamp, every per-layer metric,
oracle messages) to ``clibench/out/``.  The package is imported from
``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _print_table(record):
    env = record["environment"]
    print(
        f"{env['workload']} seed={env['seed']} trace={record['trace']} samples={record['samples']} "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"(unexpected {record['unexpected_failures']})",
        file=sys.stderr,
    )
    shown = record.get("per_layer_full") or {k: m["value"] for k, m in record["metrics"].items()}
    units = {k: m["unit"] for k, m in record["metrics"].items()}
    for key in sorted(shown):
        print(f"  {key:58s} {shown[key]:14.6g} {units.get(key, '')}", file=sys.stderr)
    for key, m in record.get("as_measured", {}).items():
        print(f"  {key + ' (as measured, not bounded)':58s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for message in record["problems"][:10]:
        print(f"  problem: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "conal", "__init__.py")):
        print(f"error: no conal sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One BLAS thread: the matrices are at most 256 x 256, where threads add
    # noise and no speed.  Set before numpy loads; setup children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    record = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    _print_table(record)
    print(f"full record: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["unexpected_failures"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
