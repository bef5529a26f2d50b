"""The axivisc benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload pair_audit --seed 0 --seconds 60 --trace 0

Run from anywhere inside a checkout; the package is imported from its `src/`.
Every timed part runs in a fresh worker process (worker.py) with the BLAS and
OpenMP pools pinned to THREADS.  This process imports neither numpy nor the
package.

--trace 0  PROCESSES workers, one after another, each set up and, for its
           share of --seconds (set-up included), alternate a solve of the
           workload with the warm table and a replay of the run directory
           with `axivisc check`.  Every metric is the median over all solves,
           replays or workers, so a burst of host load hits few samples of
           each.
--trace 1  one traced worker, for the same share of --seconds: untraced and
           traced solves alternate, and the spans give the per-layer metrics
           and the tracing overhead.

A solve fails if it raises, has a FAIL verdict, writes a diagnostics.csv
that differs from the first solve's, or its replay is not `replay: PASS`
with exit 0.  The last stdout line is the JSON result; metric names, units
and directions come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("perfbench", "_out")      # relative to ROOT

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "AXIVISC_THREADS")
DEADLINE_S = 170.0
DEFAULT_SEED = 0
PROCESSES = 3           # fresh workers per run, each giving one set-up sample

# On fine_cold a worker's set-up and one solve and replay fill its share of a
# one-minute run, so the number of samples does not depend on how fast the
# host is at the time.  fine_cold uses the smallest n_theta the table
# accepts: the apply cost and table bytes do not depend on it, and 64 nodes
# would make each cold build (set-up, and again in every replay) about 22 s.
# The ExperimentConfig fields of each workload:
WORKLOADS = {
    # separation 0.5 (the default) is rejected by build_initial's margin
    # check on every grid; the pair is not jittered in z for that reason
    "pair_audit": {"initial": {"kind": "ring_pair", "separation": 0.25},
                   "n_r": 96, "n_z": 192, "n_theta": 64, "cadence": 1,
                   "t_end": 0.01, "snapshot_times": [0.0025, 0.005, 0.0075]},
    "fine_cold": {"initial": {"kind": "gaussian_ring"},
                  "n_r": 192, "n_z": 384, "n_theta": 16, "cadence": 10,
                  "t_end": 0.001},
}


class BenchError(Exception):
    pass


def make_config(name: str, seed: int) -> dict:
    """ExperimentConfig fields of a workload; the seed jitters amplitude and r0."""
    rng = random.Random(seed)
    cfg = json.loads(json.dumps(WORKLOADS[name]))
    cfg["initial"].update(amplitude=rng.uniform(0.9, 1.1),
                          r0=rng.uniform(0.45, 0.55))
    return cfg


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    env = dict(os.environ, **{v: str(THREADS) for v in THREAD_VARS})
    job = dict(job, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['mode']} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(name: str, config: dict, processes: int, seconds: float,
            trace: bool, out_name: str | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (values by metric name, report details)."""
    deadline = time.monotonic() + DEADLINE_S
    out = os.path.join(OUT, out_name or name)
    os.makedirs(os.path.join(ROOT, out), exist_ok=True)
    job = {"root": ROOT, "config": config, "run_dir": os.path.join(out, "run"),
           "spans_path": os.path.join(out, "spans.json"),
           "seconds": seconds / processes}
    if trace:
        workers = [spawn(dict(job, mode="traced"), deadline)]
        layers = workers[0].get("layers")
        if layers is None:
            raise BenchError("traced worker completed no solve")
        values = {k: v for k, v in layers.items() if not k.startswith("_")}
        details = {k[1:]: v for k, v in layers.items() if k.startswith("_")}
    else:
        workers = [spawn(dict(job, mode="plain"), deadline)
                   for _ in range(processes)]
        if not all(w.get("wall_s") for w in workers):
            raise BenchError("a worker completed no solve")
        samples = {"setup_s": [w["setup_s"] for w in workers],
                   "wall_s": [x for w in workers for x in w["wall_s"]],
                   "replay_s": [x for w in workers for x in w["replay_s"]],
                   "peak_rss_mb": [w["peak_rss_mb"] for w in workers]}
        values = {k: statistics.median(v) for k, v in samples.items()}
        values.update({k: workers[0][k] for k in
                       ("energy_ratio", "growth_ratio", "sqrt_t_ratio")})
        details = {"samples": samples}
    details.update(env=workers[0]["env"],
                   attempted=sum(w["attempted"] for w in workers),
                   failed=sum(w["failed"] for w in workers),
                   reasons=[r for w in workers for r in w["reasons"]][:5])
    return values, details


def metric_specs(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result(values: dict, details: dict, trace: bool) -> dict:
    specs = metric_specs(trace)
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {"correct": details["failed"] == 0,
            "attempted": details["attempted"], "failed": details["failed"],
            "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                        for s in specs}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "axivisc", "__init__.py")):
        print(f"error: no axivisc package under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        values, details = measure(
            args.workload, make_config(args.workload, args.seed),
            PROCESSES, args.seconds, bool(args.trace))
        res = result(values, details, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("# " + json.dumps(details))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
