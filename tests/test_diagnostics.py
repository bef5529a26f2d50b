import math

import numpy as np
import pytest

from axivisc.biot_savart import KernelTable
from axivisc.diagnostics import (CSV_COLUMNS, CheckResult, DiagnosticsRecord,
                                 compute_record, dr_omega_monitor,
                                 energy_check, format_csv, growth_check,
                                 lemma_lp_check,
                                 max_principle_check, parse_csv, sqrt_t_check)
from axivisc.evolution import SimConfig, initial_state, run
from axivisc.grid import ScalarField, make_grid


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
        assert rec.omega_l2 == pytest.approx(
            norms.lebesgue_norm(state.omega, 2.0), rel=1e-14)
        assert rec.energy_lhs == rec.kinetic_energy

    def test_one_rearrangement_per_field(self, state, monkeypatch):
        from axivisc import norms
        calls = []
        rearrange = norms.rearrange
        monkeypatch.setattr(norms, "rearrange",
                            lambda f: calls.append(f) or rearrange(f))
        compute_record(state, first=None)
        # q, omega, dz omega, dz q and dr omega
        assert len(calls) == 5

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
        back = parse_csv(format_csv(recs))
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
