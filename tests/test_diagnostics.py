import math
import tracemalloc

import numpy as np
import pytest

from axivisc import norms
from axivisc.biot_savart import KernelTable, ur_over_r
from axivisc.diagnostics import (CSV_COLUMNS, CSV_HEADER, CheckResult,
                                 DiagnosticsRecord, _ratio, compute_record,
                                 dr_omega_monitor, energy_check, format_row,
                                 growth_check, lemma_lp_check,
                                 max_principle_check, parse_csv, sqrt_t_check)
from axivisc.evolution import SimConfig, initial_state, run, step
from axivisc.experiment import InitialData, build_initial
from axivisc.grid import ScalarField, cylindrical_integral, ddr, ddz, make_grid


def synthetic_record(**overrides):
    base = {c: 0.0 for c in CSV_COLUMNS}
    base["step_index"] = 0
    base.update(overrides)
    return DiagnosticsRecord(**base)


def series(field_values, t0=0.0, dt=0.1, **common):
    out = []
    for k, v in enumerate(field_values):
        row = dict(common)
        row.update(v if isinstance(v, dict) else {})
        out.append(synthetic_record(t=t0 + k * dt, step_index=k, **row))
    return out


class TestEnergyCheck:
    def test_decay_passes(self):
        recs = series([{"kinetic_energy": 1.0, "energy_lhs": 1.0},
                       {"energy_lhs": 0.9}, {"energy_lhs": 0.85}])
        res = energy_check(recs)
        assert res.passed is True
        assert res.worst == 0.0  # the initial record itself has zero slack

    def test_small_overshoot_within_slack(self):
        recs = series([{"kinetic_energy": 1.0, "energy_lhs": 1.0},
                       {"energy_lhs": 1.015}])
        assert energy_check(recs).passed is True

    def test_violation_fails(self):
        recs = series([{"kinetic_energy": 1.0, "energy_lhs": 1.0},
                       {"energy_lhs": 1.05}])
        assert energy_check(recs).passed is False

    def test_zero_initial_energy(self):
        recs = series([{"kinetic_energy": 0.0, "energy_lhs": 0.0},
                       {"energy_lhs": 0.0}])
        assert energy_check(recs).passed is True


class TestMaxPrincipleCheck:
    def test_monotone_passes(self):
        recs = series([
            {"sup_q": 1.0, "q_lorentz_32_1": 2.0, "q_lorentz_65_1": 2.0,
             "q_lorentz_2_2": 2.0, "q_lorentz_65_65": 2.0},
            {"sup_q": 0.9, "q_lorentz_32_1": 1.9, "q_lorentz_65_1": 1.9,
             "q_lorentz_2_2": 1.9, "q_lorentz_65_65": 1.9},
        ])
        assert max_principle_check(recs).passed is True

    def test_sup_growth_fails(self):
        recs = series([{"sup_q": 1.0}, {"sup_q": 1.0 + 1e-9}])
        assert max_principle_check(recs).passed is False

    def test_norm_growth_beyond_slack_fails(self):
        recs = series([
            {"sup_q": 1.0, "q_lorentz_32_1": 2.0},
            {"sup_q": 1.0, "q_lorentz_32_1": 2.0 * 1.01},
        ])
        assert max_principle_check(recs).passed is False


class TestGrowthCheck:
    def test_ratios_below_one_pass(self):
        recs = series([{}, {"growth_ratio_l65": 0.98, "growth_ratio_l32": 0.99,
                            "growth_ratio_l2": 0.97}])
        res = growth_check(recs)
        assert res.passed is True
        assert res.worst == pytest.approx(0.99)

    def test_ratio_beyond_slack_fails(self):
        recs = series([{}, {"growth_ratio_l32": 1.06}])
        assert growth_check(recs).passed is False

    def test_lorentz_ratio_is_report_only(self):
        recs = series([{}, {"growth_ratio_lorentz_32_1": 50.0}])
        res = growth_check(recs)
        assert res.passed is True
        assert "report only" in res.detail


class TestSqrtTCheck:
    def test_bounded_rho_passes(self):
        recs = series([{"q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": 0.01, "q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": 0.012, "q_lorentz_32_1": 1.0}])
        assert sqrt_t_check(recs).passed is True

    def test_blowup_fails(self):
        recs = series([{"q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": 0.01, "q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": 0.5, "q_lorentz_32_1": 1.0}])
        assert sqrt_t_check(recs).passed is False

    def test_constant_ur_over_r_flags(self):
        # sup|u^r/r| = c constant gives rho = c sqrt(t)/||q0||: unbounded in t,
        # caught once sqrt(t) exceeds 10x its first sample
        q0n = 1.0
        recs = [synthetic_record(t=0.0, q_lorentz_32_1=q0n)]
        c = 1.0
        for k in range(1, 400):
            t = 0.01 * k
            recs.append(synthetic_record(
                t=t, step_index=k, q_lorentz_32_1=q0n,
                sqrt_t_rho=c * t / (math.sqrt(t) * q0n)))
        assert sqrt_t_check(recs).passed is False

    def test_degenerate_zero_data(self):
        recs = series([{"q_lorentz_32_1": 0.0}, {}])
        assert sqrt_t_check(recs).passed is None


class TestDrOmegaMonitor:
    def test_finite_series_reports(self):
        recs = series([{"dr_omega_lorentz_32_1": 1.0},
                       {"dr_omega_lorentz_32_1": 2.5}])
        res = dr_omega_monitor(recs)
        assert res.passed is None
        assert res.worst == 2.5

    def test_nonfinite_fails(self):
        recs = series([{"dr_omega_lorentz_32_1": math.inf}])
        assert dr_omega_monitor(recs).passed is False


class TestNanRows:
    # a NaN in any row but the first must make the verdict FAIL with worst NaN;
    # Python's max() skips it there

    def test_energy(self):
        recs = series([{"kinetic_energy": 1.0, "energy_lhs": 1.0},
                       {"energy_lhs": math.nan}, {"energy_lhs": 0.9}])
        res = energy_check(recs)
        assert res.passed is False and math.isnan(res.worst)
        assert "worst=nan" in res.line()

    def test_energy_zero_initial(self):
        recs = series([{"kinetic_energy": 0.0, "energy_lhs": 0.0},
                       {"energy_lhs": math.nan}, {"energy_lhs": 0.0}])
        res = energy_check(recs)
        assert res.passed is False and math.isnan(res.worst)

    @pytest.mark.parametrize("column", ["sup_q", "q_lorentz_32_1"])
    def test_max_principle(self, column):
        row = {"sup_q": 1.0, "q_lorentz_32_1": 2.0, "q_lorentz_65_1": 2.0,
               "q_lorentz_2_2": 2.0, "q_lorentz_65_65": 2.0}
        recs = series([row, dict(row, **{column: math.nan}), row])
        res = max_principle_check(recs)
        assert res.passed is False and math.isnan(res.worst)

    @pytest.mark.parametrize("column", ["growth_ratio_l65", "growth_ratio_l2"])
    def test_growth(self, column):
        row = {"growth_ratio_l65": 0.9, "growth_ratio_l32": 0.9,
               "growth_ratio_l2": 0.9}
        recs = series([{}, row, dict(row, **{column: math.nan}), row])
        res = growth_check(recs)
        assert res.passed is False and math.isnan(res.worst)

    def test_sqrt_t(self):
        recs = series([{"q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": 0.01, "q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": math.nan, "q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": 0.012, "q_lorentz_32_1": 1.0}])
        res = sqrt_t_check(recs)
        assert res.passed is False and math.isnan(res.worst)

    # the degenerate branches have no reference to bound against, but
    # still read every row past t_min
    def test_sqrt_t_zero_first_rho(self):
        recs = series([{"q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": 0.0, "q_lorentz_32_1": 1.0},
                       {"sqrt_t_rho": math.nan, "q_lorentz_32_1": 1.0}])
        res = sqrt_t_check(recs)
        assert res.passed is False and math.isnan(res.worst)

    def test_sqrt_t_zero_initial(self):
        recs = series([{"q_lorentz_32_1": 0.0}, {"sqrt_t_rho": 0.0},
                       {"sqrt_t_rho": math.nan}])
        res = sqrt_t_check(recs)
        assert res.passed is False and math.isnan(res.worst)

    def test_dr_omega(self):
        recs = series([{"dr_omega_lorentz_32_1": 1.0},
                       {"dr_omega_lorentz_32_1": math.nan},
                       {"dr_omega_lorentz_32_1": 2.0}])
        res = dr_omega_monitor(recs)
        assert res.passed is False and math.isnan(res.worst)


class TestLemmaLp:
    @pytest.mark.parametrize("p", [6 / 5, 3 / 2, 2.0])
    @pytest.mark.parametrize("direction", ["r", "z"])
    def test_gaussian_bump_satisfies_bound(self, p, direction):
        g = make_grid(2.0, -2.0, 2.0, 64, 64)
        R = g.r[:, None]
        Z = g.z[None, :]
        f = ScalarField(g, np.exp(-((R - 0.7) ** 2 + Z ** 2) / 0.2 ** 2),
                        "q_omega_over_r")
        res = lemma_lp_check(f, p, direction)
        assert res.passed is True

    def test_zero_field(self):
        g = make_grid(1.0, -1.0, 1.0, 8, 8)
        f = ScalarField(g, np.zeros((8, 8)), "q_omega_over_r")
        assert lemma_lp_check(f, 1.5, "z").passed is True

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_bad_exponent(self, p):
        g = make_grid(1.0, -1.0, 1.0, 8, 8)
        f = ScalarField(g, np.ones((8, 8)), "q_omega_over_r")
        with pytest.raises(ValueError):
            lemma_lp_check(f, p, "z")

    def test_bad_direction(self):
        g = make_grid(1.0, -1.0, 1.0, 8, 8)
        f = ScalarField(g, np.ones((8, 8)), "q_omega_over_r")
        with pytest.raises(ValueError):
            lemma_lp_check(f, 1.5, "theta")


@pytest.fixture(scope="module")
def state():
    g = make_grid(2.0, -2.0, 2.0, 24, 48)
    R = g.r[:, None]
    Z = g.z[None, :]
    q0 = ScalarField(g, np.exp(-((R - 0.5) ** 2 + Z ** 2) / 0.15 ** 2),
                     "q_omega_over_r")
    return initial_state(q0, SimConfig(g), KernelTable(32))


class TestComputeRecord:

    def test_initial_record_integrals_zero(self, state):
        rec = compute_record(state, first=None)
        assert rec.t == 0.0
        assert rec.int_sup_ur_over_r == 0.0
        assert rec.twice_int_dz_u_l2_sq == 0.0
        assert rec.growth_ratio_l32 == 0.0

    def test_consistency_with_norm_module(self, state):
        from axivisc import norms
        rec = compute_record(state, first=None)
        assert rec.sup_q == np.abs(state.q.values).max()
        assert rec.omega_linf == np.abs(state.omega.values).max()
        assert rec.omega_l2 == pytest.approx(
            norms.lebesgue_norm(state.omega, 2.0), rel=1e-14)
        assert rec.energy_lhs == rec.kinetic_energy

    def test_one_rearrangement_per_field(self, state, monkeypatch):
        # every norm goes through the norms module attribute, which is where
        # perfbench's traced worker wraps them
        calls = {"lebesgue_norm": 0, "lorentz_norm": 0, "mixed_norm": 0}
        for name in calls:
            fn = getattr(norms, name)
            monkeypatch.setattr(norms, name, lambda *a, _fn=fn, _name=name: (
                calls.__setitem__(_name, calls[_name] + 1) or _fn(*a)))
        rearranged = []
        rearrange = norms.rearrange
        monkeypatch.setattr(norms, "rearrange",
                            lambda f: rearranged.append(f) or rearrange(f))
        compute_record(state, first=None)
        # q, omega, dz omega, dz q and dr omega
        assert len(rearranged) == 5
        assert calls == {"lebesgue_norm": 7, "lorentz_norm": 10, "mixed_norm": 1}

    def test_trapezoid_running_integral(self, state):
        # each record reads the state's integrals, which step() advances by
        # one trapezoid per step
        res = run(SimConfig(state.q.grid, t_end=0.02, cadence=1), state.q,
                  KernelTable(32))
        assert len(res.records) >= 4
        for a, b in zip(res.records, res.records[1:]):
            dt = b.t - a.t
            assert b.int_sup_ur_over_r == a.int_sup_ur_over_r + 0.5 * dt * (
                a.sup_ur_over_r + b.sup_ur_over_r)
            assert b.twice_int_dz_u_l2_sq == a.twice_int_dz_u_l2_sq + dt * (
                a.dz_u_l2_sq + b.dz_u_l2_sq)
            assert b.energy_lhs == b.kinetic_energy + b.twice_int_dz_u_l2_sq


def stable_profile(f):
    """The defining rearrangement: a stable argsort of -|f|."""
    vals = np.abs(f.values).ravel()
    order = np.argsort(-vals, kind="stable")
    m = f.grid.cell_measure().ravel()[order]
    return norms.RearrangementProfile(vals[order], m, np.cumsum(m))


def reference_record(state, first):
    """The record with every norm taken by its own library call on the whole
    field, and the Lorentz norms over the stable-argsort rearrangement."""
    q, omega, u = state.q, state.omega, state.u
    g = q.grid
    dz_omega, dz_q, dr_omega = ddz(omega), ddz(q), ddr(omega)
    speed_sq = u.u_r.values ** 2 + u.u_z.values ** 2
    sup_uror, dz_u_sq = state.integrands
    kinetic = cylindrical_integral(ScalarField(g, speed_sq))
    int_uror = state.int_sup_ur_over_r
    int_dzu2 = state.twice_int_dz_u_l2_sq
    q_re, omega_re, dz_omega_re, dz_q_re, dr_omega_re = (
        stable_profile(f) for f in (q, omega, dz_omega, dz_q, dr_omega))
    rec = dict(
        t=state.t, step_index=state.step_index,
        sup_q=float(np.max(np.abs(q.values))),
        q_l65=norms.lebesgue_norm(q, 6 / 5),
        q_l32=norms.lebesgue_norm(q, 3 / 2),
        q_l2=norms.lebesgue_norm(q, 2.0),
        q_lorentz_32_1=norms.lorentz_norm(q_re, (3 / 2, 1.0)),
        q_lorentz_65_1=norms.lorentz_norm(q_re, (6 / 5, 1.0)),
        q_lorentz_2_2=norms.lorentz_norm(q_re, (2.0, 2.0)),
        q_lorentz_65_65=norms.lorentz_norm(q_re, (6 / 5, 6 / 5)),
        omega_l65=norms.lebesgue_norm(omega, 6 / 5),
        omega_l32=norms.lebesgue_norm(omega, 3 / 2),
        omega_l2=norms.lebesgue_norm(omega, 2.0),
        omega_linf=norms.lebesgue_norm(omega, math.inf),
        omega_lorentz_32_1=norms.lorentz_norm(omega_re, (3 / 2, 1.0)),
        omega_lorentz_3_1=norms.lorentz_norm(omega_re, (3.0, 1.0)),
        dz_omega_l2=norms.lebesgue_norm(dz_omega, 2.0),
        dz_omega_lorentz_32_1=norms.lorentz_norm(dz_omega_re, (3 / 2, 1.0)),
        dz_q_lorentz_32_1=norms.lorentz_norm(dz_q_re, (3 / 2, 1.0)),
        dr_omega_lorentz_32_1=norms.lorentz_norm(dr_omega_re, (3 / 2, 1.0)),
        sup_u=float(np.sqrt(np.max(speed_sq))),
        sup_ur=float(np.max(np.abs(u.u_r.values))),
        sup_ur_over_r=sup_uror, int_sup_ur_over_r=int_uror,
        dz_u_l2_sq=dz_u_sq, twice_int_dz_u_l2_sq=int_dzu2,
        kinetic_energy=kinetic, energy_lhs=kinetic + int_dzu2)
    grow = math.exp(int_uror)
    if first is None:
        rec.update(growth_ratio_l65=0.0, growth_ratio_l32=0.0,
                   growth_ratio_l2=0.0, growth_ratio_lorentz_32_1=0.0,
                   sqrt_t_rho=0.0)
    else:
        rec.update(
            growth_ratio_l65=_ratio(rec["omega_l65"], first.omega_l65 * grow),
            growth_ratio_l32=_ratio(rec["omega_l32"], first.omega_l32 * grow),
            growth_ratio_l2=_ratio(rec["omega_l2"], first.omega_l2 * grow),
            growth_ratio_lorentz_32_1=_ratio(rec["omega_lorentz_32_1"],
                                             first.omega_lorentz_32_1 * grow),
            sqrt_t_rho=(_ratio(int_uror, math.sqrt(state.t) * first.q_lorentz_32_1)
                        if state.t > 0 else 0.0))
    mixed = norms.mixed_norm(ur_over_r(u), math.inf, 4.0)
    rec.update(
        biot_u_ratio=_ratio(rec["sup_u"], rec["omega_lorentz_3_1"]),
        biot_ur_ratio=_ratio(rec["sup_ur"], rec["dz_omega_lorentz_32_1"]),
        biot_ur_over_r_ratio=_ratio(sup_uror, rec["dz_q_lorentz_32_1"]),
        biot_mixed_ratio=_ratio(mixed, norms.lorentz_norm(dz_q_re, (4 / 3, 1.0))))
    return DiagnosticsRecord(**rec)


# the Lorentz columns, and the ratios that have one of them as a factor
LORENTZ_COLUMNS = [c for c in CSV_COLUMNS if "lorentz" in c] + [
    "sqrt_t_rho", "biot_u_ratio", "biot_ur_ratio", "biot_ur_over_r_ratio",
    "biot_mixed_ratio"]


def assert_matches_reference(rec, ref, g):
    """Every column equal to the reference's, but the Lorentz columns: those
    within norms.rearrange's bound 2^(k-52) plus the rounding allowance of
    tests/test_norms.py, (4 n + 20) u for n nodes; a ratio has one such factor,
    so it lies within twice that."""
    k = (g.n_r - 1).bit_length()
    rel = 2 * (2.0 ** (k - 52) + (4 * g.n_r * g.n_z + 20) * 2.0 ** -53)
    for c in CSV_COLUMNS:
        got, want = getattr(rec, c), getattr(ref, c)
        if c in LORENTZ_COLUMNS:
            assert got == pytest.approx(want, rel=rel, abs=0.0), c
        else:
            assert got == want, c


def states_48x96():
    """(initial, later) state pairs on a 48x96 grid: a signed ring pair
    lagging inside a macro step and landed, a Yudovich patch at t = 0 and
    after a few steps, and the direct omega scheme with eps_h."""
    g = make_grid(2.0, -2.0, 2.0, 48, 96)
    kt = KernelTable(16)
    out = []
    for init, cfg, n_steps, land in (
            (InitialData(kind="ring_pair", separation=0.25, r0=0.47),
             SimConfig(g), 3, None),
            (InitialData(kind="ring_pair", separation=0.25, r0=0.47),
             SimConfig(g), 0, 0.004),
            (InitialData(kind="yudovich_patch"), SimConfig(g), 0, None),
            (InitialData(kind="yudovich_patch"), SimConfig(g), 5, None),
            (InitialData(), SimConfig(g, eps_h=0.01, evolve_omega_direct=True),
             0, 0.004)):
        st0 = st = initial_state(build_initial(init, g), cfg, kt)
        for _ in range(n_steps):
            st = step(st, cfg, kt)
        while land is not None and st.t < land:
            st = step(st, cfg, kt, land_at=land)
        out.append((st0, st))
    return out


@pytest.fixture(scope="module")
def state_pairs():
    return states_48x96()


class TestRecordMatchesReference:

    def test_states_cover_lag_and_landing(self, state_pairs):
        assert state_pairs[0][1].lag > 0.0
        assert state_pairs[1][1].lag == 0.0 and state_pairs[1][1].t == 0.004
        assert state_pairs[2][1].t == 0.0
        assert state_pairs[4][1].t == 0.004

    @pytest.mark.parametrize("k", range(5))
    def test_equals_reference_record(self, state_pairs, k):
        st0, st = state_pairs[k]
        first = reference_record(st0, None)
        g = st.q.grid
        assert_matches_reference(compute_record(st0, None), first, g)
        assert_matches_reference(compute_record(st, first),
                                 reference_record(st, first), g)

    def test_working_set(self):
        # one field's temporaries at a time; the record held 24 field sizes
        # when every field's derivative and rearrangement lived at once
        g = make_grid(2.0, -2.0, 2.0, 96, 192)
        init = InitialData(kind="ring_pair", separation=0.25, r0=0.47)
        st = initial_state(build_initial(init, g), SimConfig(g), KernelTable(16))
        st.integrands
        field_bytes = 8 * g.n_r * g.n_z
        tracemalloc.start()
        try:
            compute_record(st, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * field_bytes


class TestCsv:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(77)
        recs = []
        for k in range(5):
            vals = {c: float(rng.normal() * 10.0 ** int(rng.integers(-8, 8)))
                    for c in CSV_COLUMNS}
            vals["step_index"] = k
            vals["t"] = 0.1 * k
            recs.append(DiagnosticsRecord(**vals))
        back = parse_csv(CSV_HEADER + "".join(map(format_row, recs)))
        assert back == recs

    def test_header_checked(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            parse_csv("")

    def test_check_result_line(self):
        assert "PASS" in CheckResult("energy", True, 0.1).line()
        assert "FAIL" in CheckResult("energy", False, 0.1).line()
        assert "REPORT" in CheckResult("dr_omega", None, 0.1).line()
