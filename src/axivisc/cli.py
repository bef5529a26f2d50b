"""Command line interface: run / norms / reconstruct / check.

Exit codes: 0 success, 1 a verification check failed or the run failed
part-way, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import diagnostics, norms
from .biot_savart import KernelTable, velocity_from_vorticity
from .evolution import RunFailed
from .experiment import (ExperimentConfig, load_state, parse_config, run_checks,
                         run_experiment)
from .grid import load_field, save_field


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="axivisc")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run an experiment and write diagnostics")
    pr.add_argument("--config", help="key=value config file (defaults if omitted)")
    pr.add_argument("--out", help="output directory (overrides config)")

    pn = sub.add_parser("norms", help="print norms of a snapshot field")
    pn.add_argument("--snapshot", required=True, help="snapshot path (no extension)")
    pn.add_argument("--p", type=float, action="append", default=[],
                    help="Lebesgue exponent (repeatable)")
    pn.add_argument("--q", type=float, action="append", default=[],
                    help="Lorentz second exponent paired with --p (repeatable)")

    pc = sub.add_parser("reconstruct", help="reconstruct velocity from a vorticity snapshot")
    pc.add_argument("--snapshot", required=True)
    pc.add_argument("--out", required=True)

    pk = sub.add_parser("check", help="replay all diagnostics on a run directory")
    pk.add_argument("--out", required=True, help="run directory")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "norms":
            return _cmd_norms(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        return _cmd_check(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_file(path: str, parse):
    """parse(the text of the file at path); a ValueError it raises names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _cmd_run(args) -> int:
    cfg = _parse_file(args.config, parse_config) if args.config else ExperimentConfig()
    try:
        _, verdicts = run_experiment(cfg, out_dir=args.out)
    except RunFailed as exc:
        print(f"error: run failed at {exc}", file=sys.stderr)
        return 1
    for v in verdicts:
        print(v.line())
    return 0 if all(v.passed is not False for v in verdicts) else 1


def _cmd_norms(args) -> int:
    ps = args.p or [2.0]
    qs = args.q
    if len(qs) > len(ps):
        raise ValueError(f"{len(qs)} --q values but {len(ps)} --p; each --q "
                         "pairs with the --p at its position")
    # every exponent is checked before the snapshot is read
    pairs = list(zip(ps, qs))
    for pair in pairs:
        norms.LorentzIndex(*pair)
    lebesgue = ps[len(qs):]
    for p in lebesgue:
        if not p >= 1:
            raise ValueError(f"need p >= 1, got {p}")
    f, t = load_field(args.snapshot)
    print(f"# snapshot role={f.role} t={t!r}")
    # one rearrangement shared by every Lorentz pair
    prof = norms.rearrange(f) if pairs else None
    for p, q in pairs:
        print(f"lorentz p={p:g} q={q:g} {norms.lorentz_norm(prof, (p, q)):.17g}")
    for p in lebesgue:
        print(f"lebesgue p={p:g} {norms.lebesgue_norm(f, p):.17g}")
    return 0


def _cmd_reconstruct(args) -> int:
    omega, t = load_field(args.snapshot)
    kt = KernelTable()
    u = velocity_from_vorticity(omega, kt)
    os.makedirs(args.out, exist_ok=True)
    save_field(os.path.join(args.out, "u_r"), u.u_r, time=t)
    save_field(os.path.join(args.out, "u_z"), u.u_z, time=t)
    print(f"wrote u_r, u_z to {args.out}")
    return 0


def _cmd_check(args) -> int:
    csv_path = os.path.join(args.out, "diagnostics.csv")
    config_path = os.path.join(args.out, "config.txt")
    records = _parse_file(csv_path, diagnostics.parse_csv)
    sim = _parse_file(config_path, parse_config).sim_config()
    failed = False

    # the directory must hold the finished run that config.txt describes: a
    # row at 0 and at every landing time (a landed state's t is the landing
    # time, and 17 digits read back exactly) and the last row at t_end, then
    # t_end snapshots on config.txt's grid.  A directory that is not, like a
    # config.txt that run refuses or a missing or malformed snapshot or
    # header key, raises naming the file: exit 2
    times = {r.t for r in records}
    for t in (0.0, *sim.landing_times()):
        if t not in times:
            raise ValueError(f"{csv_path}: no row at t = {t!r}, a landing time "
                             f"of {config_path}")
    if records[-1].t != sim.t_end:
        raise ValueError(f"{csv_path}: last row at t = {records[-1].t!r}, not at "
                         f"t_end = {sim.t_end!r} of {config_path}")
    state = load_state(args.out, sim.t_end, KernelTable())
    for f in (state.q, state.omega):
        if f.grid != sim.grid:
            raise ValueError(f"{config_path}: grid {sim.grid} is not the "
                             f"snapshots' {f.grid}")

    # replay the t_end row from its snapshot and what step() carried to it,
    # from the omega header; must reproduce bit-exactly
    final = records[-1]
    first = records[0] if len(records) > 1 else None
    replay = diagnostics.compute_record(state, first=first)
    if diagnostics.format_row(replay) != diagnostics.format_row(final):
        print("replay: FAIL (final CSV row does not match snapshot)")
        failed = True
    else:
        print("replay: PASS")

    for v in run_checks(records):
        print(v.line())
        if v.passed is False:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
