"""Runtime verification of the a priori estimates.

Every inequality with an explicit constant (energy, the Gronwall bound on
Lebesgue norms, the gradient lemma with its derived constant 2/p, norm
monotonicity of q) is a pass/fail check.  Every inequality stated only up to
an unspecified constant is a bounded-ratio report: the ratio is emitted and
asserted finite/stable, never compared against an invented constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import norms
from .biot_savart import ur_over_r
from .grid import ScalarField, cylindrical_integral, ddr, ddz

INF = math.inf

# tolerances pinned at the reference resolution 96x192
ENERGY_SLACK = 0.02
GROWTH_SLACK = 0.05
LEMMA_SLACK = 0.05
NORM_MONOTONE_SLACK = 1e-3
SUP_MONOTONE_SLACK = 1e-12
SQRT_T_FACTOR = 10.0

GROWTH_EXPONENTS = (6 / 5, 3 / 2, 2.0)
MONOTONE_LORENTZ = ((3 / 2, 1.0), (6 / 5, 1.0), (2.0, 2.0), (6 / 5, 6 / 5))


@dataclass
class DiagnosticsRecord:
    t: float
    step_index: int
    # q = omega/r
    sup_q: float
    q_l65: float
    q_l32: float
    q_l2: float
    q_lorentz_32_1: float
    q_lorentz_65_1: float
    q_lorentz_2_2: float
    q_lorentz_65_65: float
    # omega
    omega_l65: float
    omega_l32: float
    omega_l2: float
    omega_linf: float
    omega_lorentz_32_1: float
    omega_lorentz_3_1: float
    # derivatives
    dz_omega_l2: float
    dz_omega_lorentz_32_1: float
    dz_q_lorentz_32_1: float
    dr_omega_lorentz_32_1: float
    # velocity quantities
    sup_u: float
    sup_ur: float
    sup_ur_over_r: float
    int_sup_ur_over_r: float       # running integral, one trapezoid per step
    dz_u_l2_sq: float
    twice_int_dz_u_l2_sq: float    # 2 * running integral of dz_u_l2_sq, per step
    kinetic_energy: float          # ||u||_{L^2}^2
    # ratios
    energy_lhs: float
    growth_ratio_l65: float
    growth_ratio_l32: float
    growth_ratio_l2: float
    growth_ratio_lorentz_32_1: float
    sqrt_t_rho: float
    biot_u_ratio: float
    biot_ur_ratio: float
    biot_ur_over_r_ratio: float
    biot_mixed_ratio: float


CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else INF
    return num / den


def _field_norms(f: ScalarField, ps, indices) -> tuple[float, list, list]:
    """sup|f|, the Lebesgue norms of f at each p in ps and its Lorentz norms
    at each index, from one rearrangement (sort); f's temporaries die here.

    sup|f| is f*(0), max|f| bit for bit for a finite f: the record reads it
    for q and omega, and every state has a finite omega
    (`velocity_from_vorticity` refuses any other), hence a finite q."""
    leb = [norms.lebesgue_norm(f, p) for p in ps]
    prof = norms.rearrange(f)
    return float(prof.values[0]), leb, [norms.lorentz_norm(prof, idx) for idx in indices]


def compute_record(state, first: DiagnosticsRecord | None) -> DiagnosticsRecord:
    """All diagnostics at one instant: a pure function of the state, running
    integrals included, and of the initial record (None for the initial row)."""
    q = state.q
    omega = state.omega
    u = state.u
    g = q.grid
    t = state.t
    int_uror = state.int_sup_ur_over_r
    int_dzu2 = state.twice_int_dz_u_l2_sq
    sup_uror, dz_u_sq = state.integrands

    sup_q, (q_l65, q_l32, q_l2), (q_lor_32_1, q_lor_65_1, q_lor_2_2, q_lor_65_65) = (
        _field_norms(q, GROWTH_EXPONENTS, MONOTONE_LORENTZ))
    omega_linf, (omega_l65, omega_l32, omega_l2), (omega_lor_32_1, omega_lor_3_1) = (
        _field_norms(omega, GROWTH_EXPONENTS, ((3 / 2, 1.0), (3.0, 1.0))))
    _, (dz_omega_l2,), (dz_omega_lor,) = _field_norms(ddz(omega), (2.0,), ((3 / 2, 1.0),))
    _, _, (dz_q_lor, dz_q_43) = _field_norms(ddz(q), (), ((3 / 2, 1.0), (4 / 3, 1.0)))
    _, _, (dr_omega_lor,) = _field_norms(ddr(omega), (), ((3 / 2, 1.0),))

    sup_ur = float(np.max(np.abs(u.u_r.values)))
    # p = 4/3 in the anisotropic bound: inner exponent p/(3-2p) = 4
    mixed = norms.mixed_norm(ur_over_r(u), INF, 4.0)
    speed_sq = u.u_r.values ** 2 + u.u_z.values ** 2
    sup_u = float(np.sqrt(np.max(speed_sq)))
    kinetic = cylindrical_integral(ScalarField(g, speed_sq))

    energy_lhs = kinetic + int_dzu2
    grow = math.exp(int_uror)
    if first is None:
        g65 = g32 = g2 = glor = 0.0
        rho = 0.0
    else:
        g65 = _ratio(omega_l65, first.omega_l65 * grow)
        g32 = _ratio(omega_l32, first.omega_l32 * grow)
        g2 = _ratio(omega_l2, first.omega_l2 * grow)
        glor = _ratio(omega_lor_32_1, first.omega_lorentz_32_1 * grow)
        rho = _ratio(int_uror, math.sqrt(t) * first.q_lorentz_32_1) if t > 0 else 0.0

    return DiagnosticsRecord(
        t=t, step_index=state.step_index,
        sup_q=sup_q,
        q_l65=q_l65, q_l32=q_l32, q_l2=q_l2,
        q_lorentz_32_1=q_lor_32_1,
        q_lorentz_65_1=q_lor_65_1,
        q_lorentz_2_2=q_lor_2_2,
        q_lorentz_65_65=q_lor_65_65,
        omega_l65=omega_l65, omega_l32=omega_l32, omega_l2=omega_l2,
        omega_linf=omega_linf,
        omega_lorentz_32_1=omega_lor_32_1,
        omega_lorentz_3_1=omega_lor_3_1,
        dz_omega_l2=dz_omega_l2,
        dz_omega_lorentz_32_1=dz_omega_lor,
        dz_q_lorentz_32_1=dz_q_lor,
        dr_omega_lorentz_32_1=dr_omega_lor,
        sup_u=sup_u, sup_ur=sup_ur, sup_ur_over_r=sup_uror,
        int_sup_ur_over_r=int_uror,
        dz_u_l2_sq=dz_u_sq,
        twice_int_dz_u_l2_sq=int_dzu2,
        kinetic_energy=kinetic,
        energy_lhs=energy_lhs,
        growth_ratio_l65=g65, growth_ratio_l32=g32, growth_ratio_l2=g2,
        growth_ratio_lorentz_32_1=glor,
        sqrt_t_rho=rho,
        biot_u_ratio=_ratio(sup_u, omega_lor_3_1),
        biot_ur_ratio=_ratio(sup_ur, dz_omega_lor),
        biot_ur_over_r_ratio=_ratio(sup_uror, dz_q_lor),
        biot_mixed_ratio=_ratio(mixed, dz_q_43),
    )


@dataclass
class CheckResult:
    name: str
    passed: bool | None     # None for report-only checks
    worst: float
    detail: str = ""

    def line(self) -> str:
        verdict = {True: "PASS", False: "FAIL", None: "REPORT"}[self.passed]
        msg = f"{self.name}: {verdict} (worst={self.worst:.6g})"
        if self.detail:
            msg += f" [{self.detail}]"
        return msg


def _worst(values, default: float = 0.0) -> float:
    """The largest of values (default if none), NaN if any is NaN: Python's
    max() would skip a NaN that is not first, and a NaN verdict must FAIL."""
    a = np.fromiter(values, float)
    return float(a.max()) if a.size else default


def energy_check(records: list[DiagnosticsRecord]) -> CheckResult:
    """||u(t)||^2 + 2 int ||dz u||^2 <= ||u0||^2 within 2% at every output."""
    e0 = records[0].kinetic_energy
    if e0 == 0.0:
        worst = _worst(r.energy_lhs for r in records)
        return CheckResult("energy", worst <= 0.0, worst, "zero initial energy")
    worst = _worst((r.energy_lhs - e0) / e0 for r in records)
    return CheckResult("energy", worst <= ENERGY_SLACK, worst)


def max_principle_check(records: list[DiagnosticsRecord]) -> CheckResult:
    """sup|q| never grows (1e-12 slack); Lorentz norms of q never grow (1e-3)."""
    r0 = records[0]
    worst_sup = _worst(r.sup_q - r0.sup_q for r in records)
    ok = worst_sup <= SUP_MONOTONE_SLACK
    worst = [worst_sup]
    for attr in ("q_lorentz_32_1", "q_lorentz_65_1", "q_lorentz_2_2",
                 "q_lorentz_65_65"):
        n0 = getattr(r0, attr)
        if n0 == 0.0:
            ok = ok and all(getattr(r, attr) == 0.0 for r in records)
            continue
        rel = _worst((getattr(r, attr) - n0) / n0 for r in records)
        worst.append(rel)
        ok = ok and rel <= NORM_MONOTONE_SLACK
    return CheckResult("max_principle", ok, _worst(worst),
                       f"sup slack {worst_sup:.3g}")


def growth_check(records: list[DiagnosticsRecord]) -> CheckResult:
    """Gronwall bound with constant 1 on Lebesgue norms of omega, 5% slack.

    The Lorentz (3/2,1) ratio is reported in the record series but carries an
    unspecified constant, so it is not part of the verdict.
    """
    later = records[1:]
    worst = _worst(x for r in later for x in
                   (r.growth_ratio_l65, r.growth_ratio_l32, r.growth_ratio_l2))
    lor = _worst(r.growth_ratio_lorentz_32_1 for r in later)
    return CheckResult("growth", worst <= 1.0 + GROWTH_SLACK, worst,
                       f"lorentz ratio {lor:.3g} (report only)")


def sqrt_t_check(records: list[DiagnosticsRecord],
                 t_min: float = 0.0) -> CheckResult:
    """rho(t) = int_0^t sup|u^r/r| / (sqrt(t) ||q0||_{3/2,1}) stays bounded.

    The constant is implicit, so boundedness is taken as 10x the value at the
    first output time past t_min.  With q0 = 0 or that value 0 there is no
    reference: the verdict is REPORT, or FAIL if a row past t_min is NaN.
    """
    rows = [r for r in records if r.t > max(t_min, 0.0)]
    worst = _worst(r.sqrt_t_rho for r in rows)
    if records[0].q_lorentz_32_1 == 0.0:
        degenerate = "q0 = 0"
    elif not rows:
        return CheckResult("sqrt_t", None, 0.0, "no rows past t_min")
    elif rows[0].sqrt_t_rho == 0.0:
        degenerate = "rho(t1) = 0"
    else:
        first = rows[0].sqrt_t_rho
        return CheckResult("sqrt_t", worst <= SQRT_T_FACTOR * first, worst,
                           f"first {first:.3g}")
    return CheckResult("sqrt_t", False if math.isnan(worst) else None, worst,
                       f"degenerate: {degenerate}")


def lemma_lp_check(f: ScalarField, p: float, direction: str) -> CheckResult:
    """||d_i f||_p <= (2/p) ||d_i |f|^{p/2}||_2 ||f||_p^{(2-p)/2}, 5% slack."""
    if not (1 < p <= 2):
        raise ValueError(f"need p in (1,2], got {p}")
    if direction not in ("r", "z"):
        raise ValueError(f"direction must be 'r' or 'z', got {direction!r}")
    deriv = ddr if direction == "r" else ddz
    g = f.grid
    lhs = norms.lebesgue_norm(deriv(f), p)
    fp2 = ScalarField(g, np.abs(f.values) ** (p / 2), f.role)
    rhs = ((2.0 / p) * norms.lebesgue_norm(deriv(fp2), 2.0)
           * norms.lebesgue_norm(f, p) ** ((2 - p) / 2))
    if rhs == 0.0:
        return CheckResult(f"lemma_lp_p{p:g}", lhs == 0.0, lhs)
    slack = lhs / rhs - 1.0
    return CheckResult(f"lemma_lp_p{p:g}", slack <= LEMMA_SLACK, slack)


def dr_omega_monitor(records: list[DiagnosticsRecord]) -> CheckResult:
    """Time series of ||dr omega||_{3/2,1}; asserts finiteness only."""
    series = [r.dr_omega_lorentz_32_1 for r in records]
    finite = all(math.isfinite(v) for v in series)
    return CheckResult("dr_omega", None if finite else False, _worst(series))


# ---------------------------------------------------------------------------
# CSV persistence: one row per output time, 17 significant digits

CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


def format_row(r: DiagnosticsRecord) -> str:
    """One CSV line of a record, newline included."""
    return ",".join(_fmt(getattr(r, c)) for c in CSV_COLUMNS) + "\n"


def parse_csv(text: str) -> list[DiagnosticsRecord]:
    """Records of a diagnostics CSV; ValueError if it has no rows, or a row
    with the wrong number of fields or a non-numeric one (naming the line)."""
    rows = [(num, ln.split(",")) for num, ln in enumerate(text.splitlines(), 1)
            if ln.strip()]
    if not rows or rows[0][1] != CSV_COLUMNS:
        raise ValueError("CSV header does not match the diagnostics schema")
    if len(rows) == 1:
        raise ValueError("CSV has a header but no rows")
    out = []
    for num, vals in rows[1:]:
        if len(vals) != len(CSV_COLUMNS):
            raise ValueError(f"CSV line {num} has {len(vals)} fields, "
                             f"expected {len(CSV_COLUMNS)}")
        try:
            kwargs = {c: (int(v) if c == "step_index" else float(v))
                      for c, v in zip(CSV_COLUMNS, vals)}
        except ValueError as exc:
            raise ValueError(f"CSV line {num} has a non-numeric field: {exc}") from exc
        out.append(DiagnosticsRecord(**kwargs))
    return out


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"
