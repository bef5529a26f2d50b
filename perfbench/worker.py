"""One benchmark worker: a fresh process that sets up and runs one workload.

    python3 perfbench/worker.py '<job json>'

run.py starts it from the checkout root with the BLAS/OpenMP thread
variables already pinned, so they hold before numpy is imported.  The job
names a mode:

    plain   time set-up (fresh process to the first velocity field), then
            alternate a solve with the warm kernel table and a replay of the
            run directory with `axivisc check`
    traced  set-up, then untraced and traced solves alternate, then two
            replays; set-up and the replays are traced, and the report holds
            the per-layer metrics

Either mode starts another solve (and replay) only while the last one fits
in the `seconds` since the worker was spawned, set-up included.

The last line on stdout is the JSON report.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from run import THREAD_VARS
from tracer import Tracer

SNAPSHOT_PREFIXES = ("q_t", "omega_t")


def load_package(root: str):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    ax = importlib.import_module("axivisc")
    importlib.import_module("axivisc.cli")
    return ax


def experiment_config(ax, fields: dict):
    fields = dict(fields)
    initial = ax.InitialData(**fields.pop("initial"))
    fields["snapshot_times"] = tuple(fields.get("snapshot_times", ()))
    return ax.ExperimentConfig(initial=initial, **fields)


def setup(ax, cfg):
    """KernelTable, initial data and the first velocity field (builds the table)."""
    kt = ax.KernelTable(cfg.n_theta)
    q0 = ax.build_initial(cfg.initial, cfg.grid())
    ax.initial_state(q0, cfg.sim_config(), kt)
    return kt


def solve(ax, cfg, kt, run_dir: str) -> dict:
    """One run_experiment call into a fresh run directory, judged by its verdicts."""
    shutil.rmtree(run_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        result, verdicts = ax.run_experiment(cfg, out_dir=run_dir, kt=kt)
    except Exception:
        traceback.print_exc()
        return {"ok": False, "why": "run_experiment raised"}
    wall = time.perf_counter() - t0
    bad = [v.line() for v in verdicts if v.passed is False]
    with open(os.path.join(run_dir, "diagnostics.csv"), "rb") as fh:
        csv = fh.read()
    return {"ok": not bad, "why": "; ".join(bad), "wall_s": wall,
            "records": result.records, "csv": csv,
            "snapshot_bytes": snapshot_bytes(run_dir)}


def replay(cli, run_dir: str) -> dict:
    """`axivisc check --out run_dir`; passes only with exit 0 and `replay: PASS`."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["check", "--out", run_dir])
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and "replay: PASS" in out.getvalue().splitlines()
    return {"ok": ok, "replay_s": elapsed,
            "why": "" if ok else f"check exit {rc}: {out.getvalue().strip()}"}


def snapshot_bytes(run_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(run_dir, n))
               for n in os.listdir(run_dir) if n.startswith(SNAPSHOT_PREFIXES))


def fingerprints(records) -> dict:
    """Accuracy of one run: worst energy balance, Gronwall ratio and sqrt(t) ratio."""
    e0 = records[0].kinetic_energy
    rows = [r for r in records if r.t > 0]
    return {
        "energy_ratio": max(r.energy_lhs for r in records) / e0,
        "growth_ratio": max(max(r.growth_ratio_l65, r.growth_ratio_l32,
                                r.growth_ratio_l2) for r in records[1:]),
        "sqrt_t_ratio": max(r.sqrt_t_rho for r in rows) / rows[0].sqrt_t_rho,
    }


def dt_median(records) -> float:
    """Median step size, from the time and step index of consecutive records."""
    return statistics.median((b.t - a.t) / (b.step_index - a.step_index)
                             for a, b in zip(records, records[1:]))


def table_bytes(kt) -> int:
    """Bytes of every array the kernel table holds (its spectral kernels)."""
    total, todo = 0, list(vars(kt).values())
    while todo:
        x = todo.pop()
        if hasattr(x, "nbytes") and hasattr(x, "shape"):
            total += x.nbytes
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Tally:
    """Solves and replays attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def count(self, ok: bool, why: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(why)


def run_job(job: dict) -> dict:
    os.chdir(job["root"])
    ax = load_package(job["root"])
    cli = sys.modules["axivisc.cli"]
    cfg = experiment_config(ax, job["config"])
    mode = job["mode"]
    tracer = Tracer() if mode == "traced" else None
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    if tracer:
        tracer.install()
    with phase("bench.setup"):
        kt = setup(ax, cfg)
    report = {"setup_s": time.monotonic() - job["spawned"], "env": environment()}

    tally = Tally()
    runs = []                       # (traced, solve result)
    replay_s = []
    reference_csv = None

    def run_solve(traced: bool):
        nonlocal reference_csv
        if tracer and traced:
            tracer.install()
        elif tracer:
            tracer.uninstall()
        with phase("bench.solve"):
            res = solve(ax, cfg, kt, job["run_dir"])
        if res["ok"] and reference_csv is None:
            reference_csv = res["csv"]
        elif res["ok"] and res["csv"] != reference_csv:
            res = dict(res, ok=False, why="diagnostics.csv differs between solves")
        tally.count(res["ok"], res["why"])
        runs.append((traced, res))

    def run_replay():
        if tracer:
            tracer.install()
        with phase("bench.replay"):
            rep = replay(cli, job["run_dir"])
        tally.count(rep["ok"], rep["why"])
        replay_s.append(rep["replay_s"])

    # Replays run between the solves, so that the samples of both metrics
    # spread over the whole run and a slow spell of the host hits both alike.
    while True:
        unit_start = time.monotonic()
        if tracer:
            # alternate the order inside each untraced/traced pair
            for traced in ([False, True] if len(runs) % 4 == 0 else [True, False]):
                run_solve(traced)
        else:
            run_solve(False)
            if not replay_s:
                # read before the first replay, which builds a second table
                report["peak_rss_mb"] = peak_rss_mb()
            run_replay()
        now = time.monotonic()
        if now + (now - unit_start) - job["spawned"] > job["seconds"]:
            break
    if tracer:
        report["peak_rss_mb"] = peak_rss_mb()
        for _ in range(2):
            run_replay()
        tracer.uninstall()
    report.update(attempted=tally.attempted, failed=tally.failed,
                  reasons=tally.reasons, replay_s=replay_s)

    done = [(traced, r) for traced, r in runs if "wall_s" in r]
    if done:
        first = done[0][1]
        report.update(fingerprints(first["records"]),
                      wall_s=[r["wall_s"] for t, r in done if not t],
                      dt_median=dt_median(first["records"]))
    traced_runs = [r for t, r in done if t]
    if traced_runs and report["wall_s"]:
        report["layers"] = layer_metrics(
            tracer, traced_runs, report["wall_s"], report["dt_median"],
            table_bytes(kt))
        tracer.dump(job["spans_path"])
    return report


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced job

def tail(values: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p95/p90/p75 (nearest rank) with at least ten
    samples beyond it, else the median; returns (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100 - pct) >= 1000:
            return xs[math.ceil(pct / 100 * n) - 1], pct
    return statistics.median(xs), 50.0


def layer_metrics(tracer: Tracer, traced_runs: list, untraced_walls: list,
                  dt_med: float, kt_bytes: int) -> dict:
    spans = tracer.spans
    roots = tracer.roots()
    selfs = tracer.self_times()
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)

    def durs(name, phases=("bench.solve",)):
        return [spans[i][2] - spans[i][1] for i in range(len(spans))
                if spans[i][0] == name and spans[roots[i]][0] in phases]

    def ms(xs):
        return statistics.median(xs) * 1e3

    n = len(traced_runs)
    apply = durs("biot_savart.velocity_from_vorticity")
    apply_p50 = statistics.median(apply)
    # the first velocity call of setup and of each replay builds a cold table
    cold = []
    seen = set()
    for i, (name, start, end, _) in enumerate(spans):
        if (name == "biot_savart.velocity_from_vorticity" and roots[i] not in seen
                and spans[roots[i]][0] in ("bench.setup", "bench.replay")):
            seen.add(roots[i])
            cold.append(end - start - apply_p50)
    step = durs("evolution.step")
    record = durs("diagnostics.compute_record")
    persist = []
    for i, (name, start, end, _) in enumerate(spans):
        if name == "experiment.run_experiment" and spans[roots[i]][0] == "bench.solve":
            inner = sum(spans[c][2] - spans[c][1] for c in children[i]
                        if spans[c][0] in ("evolution.run", "experiment.build_initial"))
            persist.append(end - start - inner)
    check_self = [selfs[i] for i in range(len(spans))
                  if spans[i][0] == "cli.main"]
    traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
    untraced_wall = statistics.median(untraced_walls)
    apply_tail, apply_pct = tail(apply)
    step_tail, step_pct = tail(step)
    record_tail, record_pct = tail(record)
    return {
        "biot_savart.kernel_build_s": statistics.median(cold),
        "biot_savart.table_mb": kt_bytes / 1e6,
        "biot_savart.apply_ms.p50": apply_p50 * 1e3,
        "biot_savart.apply_ms.tail": apply_tail * 1e3,
        "biot_savart.apply_calls": len(apply) / n,
        # the whole table is read once per apply: one complex multiply-add
        # (8 flop) per 16-byte entry; the field arrays are under 1% of it
        "biot_savart.apply_mb_computed": kt_bytes / 1e6,
        "biot_savart.apply_mflop_computed": 8 * (kt_bytes / 16) / 1e6,
        "evolution.step_ms.p50": ms(step),
        "evolution.step_ms.tail": step_tail * 1e3,
        "evolution.advance_q_ms.p50": ms(durs("evolution.advance_q")),
        "evolution.cfl_dt_ms.p50": ms(durs("evolution.cfl_dt")),
        "evolution.steps": len(step) / n,
        "evolution.dt_median": dt_med,
        "diagnostics.compute_record_ms.p50": ms(record),
        "diagnostics.compute_record_ms.tail": record_tail * 1e3,
        "diagnostics.records": len(record) / n,
        "diagnostics.checks_ms": ms(durs("experiment.run_checks")),
        "norms.lorentz_norm_ms.p50": ms(durs("norms.lorentz_norm")),
        "norms.lorentz_norm_calls": len(durs("norms.lorentz_norm")) / n,
        "norms.rearrange_calls": len(durs("norms.rearrange")) / n,
        "norms.lebesgue_norm_ms.p50": ms(durs("norms.lebesgue_norm")),
        "norms.mixed_norm_ms.p50": ms(durs("norms.mixed_norm")),
        "grid.save_field_ms.p50": ms(durs("grid.save_field")),
        "grid.load_field_ms.p50": ms(durs("grid.load_field", ("bench.replay",))),
        "grid.snapshot_bytes": statistics.median(r["snapshot_bytes"] for r in traced_runs),
        "experiment.build_initial_ms": ms(durs("experiment.build_initial",
                                               ("bench.setup", "bench.solve"))),
        "experiment.persist_s": statistics.median(persist),
        "cli.check_self_s": statistics.median(check_self),
        "trace.overhead_pct": 100 * (traced_wall - untraced_wall) / untraced_wall,
        "_tail_percentiles": {"apply": apply_pct, "step": step_pct,
                              "compute_record": record_pct},
        "_samples": {"apply": len(apply), "step": len(step),
                     "compute_record": len(record), "traced_solves": n,
                     "untraced_solves": len(untraced_walls)},
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    report = run_job(job)
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
