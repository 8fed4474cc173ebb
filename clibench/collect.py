"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 clibench/collect.py --workloads cone_psi selftest --seeds 1-10 \
        --seconds 16 --trace 0 --out clibench/out/summary.json

Runs ``clibench/run.py`` once per (workload, seed), one at a time, and
reports for every metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (q3 - q1) / median.  With ``--trace 1`` it also checks
that the count metrics (``*calls_per_op``, ``*_per_op`` units ``count``)
agree with a second traced run of the first seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return summary


def _seeds(spec):
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "summary.json"))
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        results = [run_once(workload, s, args.seconds, args.trace) for s in _seeds(args.seeds)]
        first = os.path.join(HERE, "out", f"result-{workload}-seed{_seeds(args.seeds)[0]}-trace{args.trace}.json")
        with open(first, encoding="utf-8") as f:
            environment = json.load(f)["environment"]
        entry = {
            "environment": environment,
            "seconds": args.seconds,
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": summarize(results),
        }
        if args.trace:
            again = run_once(workload, _seeds(args.seeds)[0], args.seconds, 1)
            entry["counts_repeat"] = all(
                again["metrics"][k]["value"] == results[0]["metrics"][k]["value"]
                for k, m in results[0]["metrics"].items()
                if m["unit"] == "count"
            )
        report[workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}"
              + (f" counts_repeat={entry['counts_repeat']}" if args.trace else ""))
        for name, m in entry["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:44s} median {m['median']:12.6g} {m['unit']:6s} spread {spread}")
        sys.stdout.flush()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
