"""Smoke test of the benchmark itself, on tiny grids (a few seconds).

    python3 perfbench/smoke.py

Runs every workload's code path, untraced and traced, on a 24x48 grid for a
few steps and checks that each metric BENCHMARK.json names is emitted with
its unit and that the runs pass.  Then forces a FAIL verdict in an
in-process worker and checks that it is counted as a failed run.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402

TINY = {"n_r": 24, "n_z": 48, "n_theta": 16, "t_end": 0.01}
TINY_SNAPSHOTS = [0.003, 0.006]


def check(cond: bool, msg: str):
    if not cond:
        raise SystemExit(f"smoke: FAIL: {msg}")


def tiny_config(name: str) -> dict:
    cfg = dict(run.make_config(name, run.DEFAULT_SEED), **TINY)
    if cfg.get("snapshot_times"):
        cfg["snapshot_times"] = TINY_SNAPSHOTS
    return cfg


def check_workloads():
    for name in run.WORKLOADS:
        for trace in (False, True):
            values, details = run.measure(name, tiny_config(name), processes=2,
                                          seconds=0.1, trace=trace,
                                          out_name=f"smoke-{name}")
            res = run.result(values, details, trace)
            json.dumps(res)
            for spec in run.metric_specs(trace):
                m = res["metrics"].get(spec["name"])
                check(m is not None and m["unit"] == spec["unit"]
                      and isinstance(m["value"], float | int),
                      f"{name}: metric {spec['name']} missing or without unit")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={int(trace)}: {details['reasons']}")
            print(f"smoke: {name} trace={int(trace)}: "
                  f"{len(res['metrics'])} metrics, {res['attempted']} solves and replays")


def check_forced_fail():
    ax = worker.load_package(run.ROOT)
    diagnostics = ax.diagnostics
    real = diagnostics.energy_check

    def failing_energy_check(records):
        return diagnostics.CheckResult("energy", False, 1.0, "forced by smoke test")

    name = "pair_audit"
    job = {"root": run.ROOT, "config": tiny_config(name), "mode": "plain",
           "run_dir": os.path.join(run.OUT, "smoke-forced", "run"),
           "spans_path": os.path.join(run.OUT, "smoke-forced", "spans.json"),
           "seconds": 0.0, "spawned": time.monotonic()}
    diagnostics.energy_check = failing_energy_check
    try:
        report = worker.run_job(job)
    finally:
        diagnostics.energy_check = real
    check(report["attempted"] >= 1 and report["failed"] == report["attempted"],
          f"forced FAIL not counted: {report['attempted']} attempted, "
          f"{report['failed']} failed")
    check(any("forced by smoke test" in r for r in report["reasons"]),
          f"forced FAIL reason missing: {report['reasons']}")
    values = {k: report[k] for k in ("energy_ratio", "growth_ratio", "sqrt_t_ratio")}
    values.update(setup_s=report["setup_s"], wall_s=report["wall_s"][0],
                  replay_s=report["replay_s"][0], peak_rss_mb=report["peak_rss_mb"])
    res = run.result(values, report, trace=False)
    check(not res["correct"] and res["failed"] == report["failed"],
          "forced FAIL did not make the result incorrect")
    print(f"smoke: forced FAIL counted: {res['failed']}/{res['attempted']} failed")


if __name__ == "__main__":
    check_workloads()
    check_forced_fail()
    print("smoke: PASS")
