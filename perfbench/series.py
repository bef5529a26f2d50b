"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/series.py --runs 10 [--workload pair_audit ...] [--trace 0]
                                [--out perfbench/_out/series.json]

Runs `run.py` once per seed (seeds 1..runs) for each workload, with
BENCHMARK.json's run_seconds, and writes every result together with each
metric's median, quartiles and quartile spread as a share of the median
(`statistics.quantiles(values, n=4)`).  Spreads above a third of a metric's
bound are flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(results: list[dict], specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        row = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
               "unit": spec["unit"]}
        if "bound" in spec:
            row["bound"] = spec["bound"]
            row["steady"] = spread < spec["bound"] / 3
        out[spec["name"]] = row
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(HERE, "_out", "series.json"))
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")
    specs = bench["per_layer" if args.trace else "end_to_end"]
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    for name in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res.update(seed=seed, elapsed_s=time.monotonic() - t0,
                       details=json.loads(lines[-2][2:]))
            results.append(res)
            print(f"{name} seed {seed}: {res['elapsed_s']:.1f} s, "
                  f"correct={res['correct']}", file=sys.stderr)
        summary = summarise(results, specs)
        report["workloads"][name] = {"summary": summary, "runs": results}
        for metric, row in summary.items():
            flag = "" if row.get("steady", True) else "  <-- spread above bound/3"
            print(f"{name:11s} {metric:36s} median {row['median']:.6g} "
                  f"{row['unit']:11s} spread {row['spread']:.4f}{flag}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
