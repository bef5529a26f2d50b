import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from axivisc import evolution
from axivisc.biot_savart import KernelTable, velocity_from_vorticity
from axivisc.diagnostics import compute_record, format_row
from axivisc.evolution import (_BLOCK_NODES, MACRO_SUBSTEPS, SimConfig,
                               SimState, _advect, _diffuse_z,
                               advance_omega_direct, advance_q, cfl_dt,
                               initial_state, run, step)
from axivisc.experiment import ExperimentConfig, build_initial, run_checks
from axivisc.grid import (ODD_ROLES, ScalarField, VelocityField, axis_ghost,
                          cylindrical_integral, make_grid, zero_field)


def gaussian_q0(g, amp=1.0, r0=0.5, z0=0.0, sigma=0.15):
    R = g.r[:, None]
    Z = g.z[None, :]
    return ScalarField(g, amp * np.exp(-((R - r0) ** 2 + (Z - z0) ** 2) / sigma ** 2),
                       "q_omega_over_r")


def keep_landed(snapshots: dict):
    """A run on_record that keeps each landed state in snapshots, by its t."""
    def on_record(record, landed):
        if landed is not None:
            snapshots[landed.t] = landed
    return on_record


@pytest.fixture(scope="module")
def small():
    g = make_grid(2.0, -2.0, 2.0, 24, 48)
    kt = KernelTable(32)
    return g, kt


class TestCflDt:
    def test_zero_velocity_diffusive_bound(self, small):
        g, kt = small
        cfg = SimConfig(g, dt_cfl_factor=0.5)
        st = initial_state(zero_field(g, "q_omega_over_r"), cfg, kt)
        assert cfl_dt(st, cfg) == pytest.approx(
            (0.5 * g.dz ** 2, 0.5 * MACRO_SUBSTEPS * g.dz ** 2))

    def test_advective_bound_dominates(self, small):
        g, kt = small
        cfg = SimConfig(g)
        st = initial_state(zero_field(g, "q_omega_over_r"), cfg, kt)
        big = VelocityField(
            ScalarField(g, np.full((g.n_r, g.n_z), 100.0), "u_r"),
            zero_field(g, "u_z"))
        st = SimState(0.0, st.q, st.omega, big)
        # both bounds: MACRO_SUBSTEPS diffusion caps exceed dr / 100
        assert cfl_dt(st, cfg) == pytest.approx((0.9 * g.dr / 100.0,) * 2)

    def test_eps_h_bound(self, small):
        g, kt = small
        cfg = SimConfig(g, eps_h=10.0)
        st = initial_state(zero_field(g, "q_omega_over_r"), cfg, kt)
        cap = min(g.dz ** 2, 0.25 * g.dr ** 2 / 10.0)
        assert cfl_dt(st, cfg) == pytest.approx(
            (0.9 * cap, 0.9 * MACRO_SUBSTEPS * cap))

    def test_nonfinite_velocity_rejected(self, small):
        g, kt = small
        cfg = SimConfig(g)
        st = initial_state(zero_field(g, "q_omega_over_r"), cfg, kt)
        bad = np.zeros((g.n_r, g.n_z))
        bad[0, 0] = np.nan
        st = SimState(0.0, st.q, st.omega,
                      VelocityField(ScalarField(g, bad, "u_r"),
                                    zero_field(g, "u_z")))
        with pytest.raises(ValueError):
            cfl_dt(st, cfg)


def naive_sample(fields, r_pts, z_pts, clamp):
    """Whole-grid bilinear sampling with role-aware axis reflection and a
    zero outer ring: the reference for the blocked sweep of _advect."""
    grid = fields[0].grid
    n_r, n_z = grid.n_r, grid.n_z
    pr = np.clip(np.abs(r_pts) / grid.dr + 0.5, 0.0, n_r + 1.0)
    pz = np.clip((z_pts - grid.z_min) / grid.dz + 0.5, 0.0, n_z + 1.0)
    i0 = np.clip(np.floor(pr).astype(np.intp), 0, n_r)
    j0 = np.clip(np.floor(pz).astype(np.intp), 0, n_z)
    fr = pr - i0
    fz = pz - j0
    k00 = i0 * (n_z + 2) + j0
    corners = (k00, k00 + (n_z + 2), k00 + 1, k00 + (n_z + 3))
    w00, w10, w01, w11 = (1 - fr) * (1 - fz), fr * (1 - fz), (1 - fr) * fz, fr * fz
    out = []
    for f in fields:
        padded = np.zeros((n_r + 2, n_z + 2))
        padded[1:-1, 1:-1] = f.values
        padded[0, 1:-1] = axis_ghost(f)
        c00, c10, c01, c11 = (padded.take(k) for k in corners)
        val = w00 * c00 + w10 * c10 + w01 * c01 + w11 * c11
        if clamp:
            lo = np.minimum(np.minimum(c00, c10), np.minimum(c01, c11))
            hi = np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
            val = np.clip(val, lo, hi)
        sign = np.where(r_pts < 0, -1.0, 1.0) if f.role in ODD_ROLES else 1.0
        out.append(sign * val)
    return out


def naive_advect(f, u, dt):
    """RK2 feet of every node at once, then one clamped sample of f."""
    g = u.grid
    R = np.broadcast_to(g.r[:, None], (g.n_r, g.n_z))
    Z = np.broadcast_to(g.z[None, :], (g.n_r, g.n_z))
    r_mid = R - 0.5 * dt * u.u_r.values
    z_mid = Z - 0.5 * dt * u.u_z.values
    ur_m, uz_m = naive_sample((u.u_r, u.u_z), r_mid, z_mid, clamp=False)
    return naive_sample((f,), R - dt * ur_m, Z - dt * uz_m, clamp=True)[0]


def random_velocity(g, rng, scale):
    return VelocityField(
        ScalarField(g, scale * rng.normal(size=(g.n_r, g.n_z)), "u_r"),
        ScalarField(g, scale * rng.normal(size=(g.n_r, g.n_z)), "u_z"))


class TestBlockedAdvection:
    """_advect sweeps blocks of whole r-rows; each node's arithmetic is the
    whole-grid sweep's, so the two agree bit for bit."""

    @pytest.mark.parametrize("role", ["q_omega_over_r", "omega_theta"])
    @pytest.mark.parametrize("n_r, n_z", [
        (37, 200),                  # 20 rows per block, a partial last block
        (5, _BLOCK_NODES + 3),      # one row per block
    ])
    def test_equals_whole_grid_sweep(self, role, n_r, n_z):
        rng = np.random.default_rng(n_r)
        g = make_grid(2.0, -2.0, 2.0, n_r, n_z)
        rows_per_block = max(1, _BLOCK_NODES // n_z)
        assert rows_per_block == 1 or n_r % rows_per_block != 0
        f = ScalarField(g, rng.normal(size=(n_r, n_z)), role)
        # feet cross the axis, the outer ring and the z walls
        u = random_velocity(g, rng, 2.0 / 0.05)
        out = _advect(f, u, 0.05)
        np.testing.assert_array_equal(out, naive_advect(f, u, 0.05))
        assert np.any(out != 0.0)

    def test_equals_whole_grid_sweep_on_exact_shift(self, small):
        # dt*u = dz lands every foot on a node
        g, _ = small
        q = gaussian_q0(g)
        u = VelocityField(zero_field(g, "u_r"),
                          ScalarField(g, np.ones((g.n_r, g.n_z)), "u_z"))
        np.testing.assert_array_equal(_advect(q, u, g.dz),
                                      naive_advect(q, u, g.dz))

    def test_advance_q_working_set(self):
        # the whole-grid sweep held about 28 field-sized arrays at once
        g = make_grid(2.0, -2.0, 2.0, 192, 384)
        rng = np.random.default_rng(3)
        q = ScalarField(g, rng.random((g.n_r, g.n_z)), "q_omega_over_r")
        u = random_velocity(g, rng, 1.0)
        field_bytes = 8 * g.n_r * g.n_z
        tracemalloc.start()
        try:
            advance_q(q, u, 1e-3, 0.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * field_bytes


class TestAdvection:
    def test_zero_velocity_identity(self, small):
        g, _ = small
        q = gaussian_q0(g)
        u = VelocityField(zero_field(g, "u_r"), zero_field(g, "u_z"))
        out = _advect(q, u, 0.01)
        np.testing.assert_allclose(out, q.values, atol=1e-12)

    def test_uniform_vertical_translation(self, small):
        # constant u^z shifts the profile by exactly one cell when dt*u = dz
        g, _ = small
        q = gaussian_q0(g)
        u = VelocityField(zero_field(g, "u_r"),
                          ScalarField(g, np.ones((g.n_r, g.n_z)), "u_z"))
        out = _advect(q, u, g.dz)
        np.testing.assert_allclose(out[:, 1:], q.values[:, :-1], atol=1e-12)

    def test_max_principle_exact(self, small):
        g, kt = small
        q = gaussian_q0(g)
        omega = ScalarField(g, g.r[:, None] * q.values, "omega_theta")
        u = velocity_from_vorticity(omega, kt)
        out = _advect(q, u, 0.01)
        # clamped sampling: bounded by the data range extended by the zero
        # ghost outside the box
        assert out.max() <= q.values.max()
        assert out.min() >= min(q.values.min(), 0.0)

    def test_mass_approximately_conserved(self, small):
        g, kt = small
        q = gaussian_q0(g)
        omega = ScalarField(g, g.r[:, None] * q.values, "omega_theta")
        u = velocity_from_vorticity(omega, kt)
        out = ScalarField(g, _advect(q, u, 0.005), "q_omega_over_r")
        m0 = cylindrical_integral(q)
        m1 = cylindrical_integral(out)
        assert abs(m1 - m0) / m0 <= 1e-3


class TestDiffuseZ:
    def test_fourier_symbol(self):
        # absorbing walls make the solve diagonal in the discrete sine basis:
        # sin(pi k (j+1)/(n+1)) is damped by 1/(1 + dt*k_d^2) with
        # k_d^2 = (2 - 2 cos(pi k/(n+1))) / dz^2
        g = make_grid(1.0, -1.0, 1.0, 4, 32)
        n = g.n_z
        dt = 7e-4
        for k in (1, 3, 10):
            j = np.arange(n)
            mode = np.sin(np.pi * k * (j + 1) / (n + 1))
            vals = np.tile(mode, (g.n_r, 1))
            out = _diffuse_z(vals, g, dt)
            k_d2 = (2 - 2 * np.cos(np.pi * k / (n + 1))) / g.dz ** 2
            expected = vals / (1 + dt * k_d2)
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_monotone(self):
        rng = np.random.default_rng(12)
        g = make_grid(1.0, -1.0, 1.0, 4, 32)
        vals = rng.normal(size=(4, 32))
        out = _diffuse_z(vals, g, 1e-3)
        assert out.max() <= vals.max() + 1e-12
        assert out.min() >= vals.min() - 1e-12

    def test_mass_decreases_at_walls_only(self):
        # interior bump: absorbing walls are invisible, mass conserved
        g = make_grid(1.0, -1.0, 1.0, 4, 64)
        vals = np.zeros((4, 64))
        vals[:, 30:34] = 1.0
        out = _diffuse_z(vals, g, 1e-4)
        np.testing.assert_allclose(out.sum(axis=1), vals.sum(axis=1), rtol=1e-12)


    @pytest.mark.parametrize("lam", [1e-7, 0.9, 9.2, 300.0])
    # 193 pads its last block of 49 points with 3 zero rows and columns
    @pytest.mark.parametrize("n_z", [5, 25, 64, 193, 384])
    def test_matches_banded_solve(self, n_z, lam):
        g = make_grid(1.0, -1.0, 1.0, 6, n_z)
        vals = np.random.default_rng(n_z).normal(size=(6, n_z))
        dt = lam * g.dz ** 2
        lam = dt / g.dz ** 2
        ab = np.zeros((3, n_z))
        ab[0, 1:] = ab[2, :-1] = -lam
        ab[1] = 1.0 + 2.0 * lam
        out = _diffuse_z(vals, g, dt)
        ref = solve_banded((1, 1), ab, vals.T).T
        # the banded LU errs by about cond(A) eps: at lam = 300 and
        # n_z = 384, 1.7e-14 against an 80-bit Thomas solve, where this
        # solve errs by 1.3e-15; so at 300 the residual is checked as well
        tol = 1e-14 if lam < 100 else 1e-13
        assert np.abs(out - ref).max() <= tol * np.abs(ref).max()
        res = (1.0 + 2.0 * lam) * out
        res[:, 1:] -= lam * out[:, :-1]
        res[:, :-1] -= lam * out[:, 1:]
        assert np.abs(res - vals).max() <= 1e-15 * (1.0 + 4.0 * lam) * np.abs(out).max()

    def test_tiny_tails_stay_non_negative(self):
        # no factor of the inverse is negative, so underflowing tails of a
        # positive field cannot turn negative
        g = make_grid(1.0, -1.0, 1.0, 4, 384)
        tails = np.maximum(np.exp(-(g.z / 0.05) ** 2), 1e-300)
        vals = np.array([[1.0], [1e-8], [1.0], [0.0]]) * tails
        for lam in (1e-7, 0.9, 9.2):
            out = _diffuse_z(vals, g, lam * g.dz ** 2)
            assert out.min() >= 0.0
            assert np.all(out[[0, 2]] > 0.0)


class TestTransportInterval:
    """advance_q and advance_omega_direct transport over `transport` (none
    at 0), then diffuse over dt."""

    def test_advance_q(self, small):
        g, kt = small
        q = gaussian_q0(g)
        u = velocity_from_vorticity(
            ScalarField(g, g.r[:, None] * q.values, "omega_theta"), kt)
        dt = 0.004
        for transport, moved in ((dt, _advect(q, u, dt)), (0.0, q.values),
                                 (3 * dt, _advect(q, u, 3 * dt))):
            np.testing.assert_array_equal(
                advance_q(q, u, dt, 0.0, transport).values,
                _diffuse_z(moved, g, dt))

    def test_advance_omega_direct_stretches_over_the_transport(self, small):
        g, kt = small
        omega = ScalarField(g, g.r[:, None] * gaussian_q0(g).values, "omega_theta")
        u = velocity_from_vorticity(omega, kt)
        dt, tr = 0.004, 0.012
        stretched = _advect(omega, u, tr) * np.exp(tr * u.u_r.values / g.r[:, None])
        np.testing.assert_array_equal(
            advance_omega_direct(omega, u, dt, 0.0, tr).values,
            _diffuse_z(stretched, g, dt))
        np.testing.assert_array_equal(
            advance_omega_direct(omega, u, dt, 0.0, 0.0).values,
            _diffuse_z(omega.values, g, dt))


class TestAdvanceOmegaDirect:
    def test_zero_velocity_is_pure_diffusion(self, small):
        g, _ = small
        omega = ScalarField(g, gaussian_q0(g).values * g.r[:, None], "omega_theta")
        u = VelocityField(zero_field(g, "u_r"), zero_field(g, "u_z"))
        out = advance_omega_direct(omega, u, 1e-3, 0.0, 1e-3)
        np.testing.assert_allclose(out.values,
                                   _diffuse_z(omega.values, g, 1e-3), atol=1e-14)

    def test_positivity_preserved(self, small):
        g, kt = small
        q = gaussian_q0(g)
        omega = ScalarField(g, g.r[:, None] * q.values, "omega_theta")
        u = velocity_from_vorticity(omega, kt)
        out = advance_omega_direct(omega, u, 0.01, 0.0, 0.01)
        assert out.values.min() >= 0.0


class TestStep:
    def test_omega_is_r_times_q(self, small):
        g, kt = small
        cfg = SimConfig(g)
        st = initial_state(gaussian_q0(g), cfg, kt)
        for _ in range(3):
            st = step(st, cfg, kt)
        np.testing.assert_allclose(
            st.omega.values, g.r[:, None] * st.q.values, atol=1e-14)

    def test_step_chain_reproduces_run(self, small):
        # step() lands on its target and carries the running integrals, so a
        # chain of steps, recorded every step, gives run()'s rows byte for byte
        g, kt = small
        cfg = SimConfig(g, t_end=0.02, cadence=1, snapshot_times=(0.007,))
        q0 = gaussian_q0(g)
        st = initial_state(q0, cfg, kt)
        rows = [compute_record(st, first=None)]
        for target in cfg.landing_times():
            while st.t < target:
                st = step(st, cfg, kt, land_at=target)
                rows.append(compute_record(st, first=rows[0]))
            assert st.t == target
        assert 0.007 in [r.t for r in rows]
        assert rows[-1].int_sup_ur_over_r > 0.0
        assert rows[-1].twice_int_dz_u_l2_sq > 0.0
        assert rows[-1].sqrt_t_rho > 0.0
        res = run(cfg, q0, kt)
        assert list(map(format_row, rows)) == list(map(format_row, res.records))

    @pytest.mark.parametrize("back", [0.0, 1e-3])
    def test_land_at_not_ahead_rejected(self, small, back):
        g, kt = small
        cfg = SimConfig(g)
        st = step(initial_state(gaussian_q0(g), cfg, kt), cfg, kt)
        with pytest.raises(ValueError, match="non-positive time step"):
            step(st, cfg, kt, land_at=st.t - back)

    @pytest.mark.parametrize("eps_h", [0.0, 1e-2])
    def test_schemes_agree_at_short_time(self, small, eps_h):
        # q-transport and direct omega stepping solve one equation, eps_h
        # term included, and converge to each other
        g, kt = small
        cfg_q = SimConfig(g, t_end=0.05, eps_h=eps_h)
        cfg_w = SimConfig(g, t_end=0.05, eps_h=eps_h, evolve_omega_direct=True)
        q0 = gaussian_q0(g)
        res_q = run(cfg_q, q0, kt)
        res_w = run(cfg_w, q0, kt)
        a = res_q.final_state.omega.values
        b = res_w.final_state.omega.values
        rel = np.sqrt(np.sum((a - b) ** 2) / np.sum(a ** 2))
        assert rel <= 1e-2


def rel_l2(a, b):
    return float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b ** 2)))


class TestMultirate:
    """step() transports once per macro step of up to MACRO_SUBSTEPS
    diffusion sub-steps, at its last sub-step or at a landing."""

    # eps_h = 1 makes its stability bound the step cap, under half of dz^2
    @pytest.mark.parametrize("eps_h", [0.0, 1.0])
    def test_one_substep_is_plain_splitting(self, small, monkeypatch, eps_h):
        # at M = 1 every step transports over its own dt, with the incoming
        # velocity, before it diffuses: advance_q of the incoming state
        monkeypatch.setattr(evolution, "MACRO_SUBSTEPS", 1)
        g, kt = small
        cfg = SimConfig(g, t_end=0.02, eps_h=eps_h, snapshot_times=(0.007,))
        st = initial_state(gaussian_q0(g), cfg, kt)
        n = 0
        for target in cfg.landing_times():
            while st.t < target:
                dt = min(cfl_dt(st, cfg)[0], target - st.t)
                new = step(st, cfg, kt, land_at=target)
                np.testing.assert_array_equal(
                    new.q.values, advance_q(st.q, st.u, dt, eps_h, dt).values)
                assert new.carried.lag == 0.0
                st, n = new, n + 1
        assert st.t == 0.02 and n > 3

    def test_splitting_error_small_against_refinement(self, monkeypatch):
        # the error of transporting once per macro step, against M = 1, is
        # under a tenth of the 48x96 -> 96x192 difference (2x2 cell means of
        # the fine q) at the chosen M
        def final_q(n_r, n_z):
            cfg = ExperimentConfig(n_r=n_r, n_z=n_z, t_end=0.1)
            res = run(cfg.sim_config(), build_initial(cfg.initial, cfg.grid()),
                      KernelTable())
            return res.final_state.q.values

        coarse = final_q(48, 96)
        fine = final_q(96, 192).reshape(48, 2, 96, 2).mean(axis=(1, 3))
        monkeypatch.setattr(evolution, "MACRO_SUBSTEPS", 1)
        plain = final_q(48, 96)
        splitting, refinement = rel_l2(coarse, plain), rel_l2(coarse, fine)
        assert 0.0 < splitting < 0.1 * refinement

    def test_schemes_agree_through_a_macro_step(self):
        # 96x192 ring to a landing past one whole macro step: the first
        # MACRO_SUBSTEPS - 1 states lag, the next one transports, and the
        # landing clears the lag in both schemes
        cfg = ExperimentConfig()
        g, kt = cfg.grid(), KernelTable()
        q0 = build_initial(cfg.initial, g)
        t_land = 1.5 * MACRO_SUBSTEPS * cfl_dt(initial_state(q0, SimConfig(g), kt),
                                               SimConfig(g))[0]
        omegas = {}
        for direct in (False, True):
            sim = SimConfig(g, evolve_omega_direct=direct)
            st = initial_state(q0, sim, kt)
            lags = []
            while st.t < t_land:
                st = step(st, sim, kt, land_at=t_land)
                lags.append(st.carried.lag)
            assert all(lag > 0.0 for lag in lags[:MACRO_SUBSTEPS - 1])
            assert lags[MACRO_SUBSTEPS - 1] == 0.0
            assert lags[MACRO_SUBSTEPS] > 0.0
            assert st.t == t_land and lags[-1] == 0.0
            omegas[direct] = st.omega.values
        assert rel_l2(omegas[True], omegas[False]) <= 1e-2

    @pytest.mark.parametrize("direct", [False, True])
    def test_landed_states_do_not_lag(self, small, direct):
        g, kt = small
        cfg = SimConfig(g, t_end=0.03, evolve_omega_direct=direct,
                        snapshot_times=(0.002, 0.02))
        snapshots = {}
        run(cfg, gaussian_q0(g), kt, on_record=keep_landed(snapshots))
        assert sorted(snapshots) == [0.0, 0.002, 0.02, 0.03]
        for t, st in snapshots.items():
            assert st.t == t and st.carried.lag == 0.0


class TestRun:
    def test_zero_initial_data_stays_zero(self, small):
        g, kt = small
        cfg = SimConfig(g, t_end=0.01)
        res = run(cfg, zero_field(g, "q_omega_over_r"), kt)
        np.testing.assert_array_equal(res.final_state.q.values, 0.0)
        assert res.sup_q_per_step.max() == 0.0

    def test_hits_t_end_and_snapshots_exactly(self, small):
        # 0 and t_end are snapshot times the run lands on anyway
        g, kt = small
        cfg = SimConfig(g, t_end=0.02, snapshot_times=(0.0, 0.01, 0.02))
        snapshots = {}
        res = run(cfg, gaussian_q0(g), kt, on_record=keep_landed(snapshots))
        assert res.final_state.t == 0.02
        assert set(snapshots) == {0.0, 0.01, 0.02}

    @pytest.mark.parametrize("times, near", [((0.01, 0.01 + 1e-13), "0.01 and"),
                                             ((1e-13,), "0.0 and 1e-13")])
    def test_landing_times_within_eps_rejected(self, small, times, near):
        # the loop could not land on both times, so it would drop one: the
        # config is refused when it is built
        g, _ = small
        with pytest.raises(ValueError, match=near):
            SimConfig(g, t_end=0.02, snapshot_times=times)

    @pytest.mark.parametrize("times", [(0.01, -1.0), (0.03,), (float("nan"),)])
    def test_snapshot_times_outside_run_rejected(self, small, times):
        # the run would land on none of them, so it would save none: the
        # config is refused when it is built
        g, _ = small
        with pytest.raises(ValueError, match=r"not in \[0, t_end = 0.02\]"):
            SimConfig(g, t_end=0.02, snapshot_times=times)

    def test_deterministic(self, small):
        g, kt = small
        cfg = SimConfig(g, t_end=0.01)
        r1 = run(cfg, gaussian_q0(g), kt)
        r2 = run(cfg, gaussian_q0(g), kt)
        np.testing.assert_array_equal(r1.final_state.q.values,
                                      r2.final_state.q.values)
        assert len(r1.records) == len(r2.records)

    def test_cadence_does_not_change_rows(self, small):
        # the running integrals advance every step, so a row and every
        # verdict are the same however often rows are written
        g, kt = small
        q0 = gaussian_q0(g)
        rows, verdicts = {}, {}
        for cadence in (1, 10, 100):
            res = run(SimConfig(g, t_end=0.7, cadence=cadence), q0, kt)
            assert res.final_state.carried.step_index > 100
            rows[cadence] = {r.step_index: format_row(r) for r in res.records}
            verdicts[cadence] = [v.passed for v in run_checks(res.records)]
        shared = set(rows[1]) & set(rows[10]) & set(rows[100])
        assert len(shared) == 3      # step 0, step 100 and the final step
        for k in shared:
            assert rows[1][k] == rows[10][k] == rows[100][k]
        assert verdicts[1] == verdicts[10] == verdicts[100]

    def test_dt_self_convergence(self, small):
        # halving dt_cfl_factor roughly halves the error of the first-order
        # split scheme (ratio between ~1.5 and ~3)
        g, kt = small
        q0 = gaussian_q0(g)
        sols = {}
        for f in (0.8, 0.4, 0.2):
            res = run(SimConfig(g, dt_cfl_factor=f, t_end=0.05), q0, kt)
            sols[f] = res.final_state.q.values
        e1 = np.abs(sols[0.8] - sols[0.2]).max()
        e2 = np.abs(sols[0.4] - sols[0.2]).max()
        assert 1.3 < e1 / e2 < 4.0

    def test_negative_t_end_rejected(self, small):
        g, kt = small
        with pytest.raises(ValueError):
            run(SimConfig(g, t_end=-1.0), gaussian_q0(g), kt)


class TestSimConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"dt_cfl_factor": 0.0},
        {"dt_cfl_factor": 1.5},
        {"eps_h": -1.0},
        {"cadence": 0},
        {"t_end": -1.0},
        {"t_end": float("nan")},
        {"t_end": float("inf")},
        {"eps_h": float("nan")},
        {"eps_h": float("inf")},
    ])
    def test_rejects(self, small, kwargs):
        g, _ = small
        with pytest.raises(ValueError):
            SimConfig(g, **kwargs)
