import numpy as np
import pytest

from axivisc.biot_savart import KernelTable, ur_over_r, velocity_from_vorticity
from axivisc.grid import (ScalarField, VelocityField, make_grid, zero_field)


@pytest.fixture(scope="module")
def setup():
    g = make_grid(2.0, -2.0, 2.0, 32, 64)
    kt = KernelTable(32)
    R = g.r[:, None]
    Z = g.z[None, :]
    omega = ScalarField(g, R * np.exp(-((R - 0.5) ** 2 + Z ** 2) / 0.15 ** 2),
                        "omega_theta")
    return g, kt, omega


class TestKernelTable:
    def test_weights_sum_to_two_pi(self):
        kt = KernelTable(48)
        assert kt.weights.sum() == pytest.approx(2 * np.pi, rel=1e-14)

    @pytest.mark.parametrize("n", [8, 15, 17])
    def test_rejects_bad_node_counts(self, n):
        with pytest.raises(ValueError):
            KernelTable(n)


class TestVelocityFromVorticity:
    def test_zero_vorticity(self, setup):
        g, kt, _ = setup
        u = velocity_from_vorticity(zero_field(g, "omega_theta"), kt)
        np.testing.assert_array_equal(u.u_r.values, 0.0)
        np.testing.assert_array_equal(u.u_z.values, 0.0)

    def test_role_checked(self, setup):
        g, kt, _ = setup
        with pytest.raises(ValueError, match="omega_theta"):
            velocity_from_vorticity(zero_field(g, "derived"), kt)

    def test_linearity(self, setup):
        g, kt, omega = setup
        rng = np.random.default_rng(8)
        w2 = ScalarField(g, rng.normal(size=omega.values.shape), "omega_theta")
        ua = velocity_from_vorticity(omega, kt)
        ub = velocity_from_vorticity(w2, kt)
        comb = ScalarField(g, 2.0 * omega.values - 3.0 * w2.values, "omega_theta")
        uc = velocity_from_vorticity(comb, kt)
        np.testing.assert_allclose(
            uc.u_r.values, 2 * ua.u_r.values - 3 * ub.u_r.values,
            atol=1e-12 * np.abs(ua.u_r.values).max())
        np.testing.assert_allclose(
            uc.u_z.values, 2 * ua.u_z.values - 3 * ub.u_z.values,
            atol=1e-12 * np.abs(ua.u_z.values).max())

    def test_parity_about_z0(self, setup):
        # omega even in z  =>  u^r odd, u^z even (kernel parity in z-z')
        g, kt, omega = setup
        u = velocity_from_vorticity(omega, kt)
        ur = u.u_r.values
        uz = u.u_z.values
        scale_r = np.abs(ur).max()
        scale_z = np.abs(uz).max()
        assert np.abs(ur + ur[:, ::-1]).max() <= 1e-10 * scale_r
        assert np.abs(uz - uz[:, ::-1]).max() <= 1e-10 * scale_z

    def test_axis_value_shrinks_under_refinement(self):
        vals = []
        for n_r in (24, 48):
            g = make_grid(2.0, -2.0, 2.0, n_r, 2 * n_r)
            R = g.r[:, None]
            Z = g.z[None, :]
            omega = ScalarField(
                g, R * np.exp(-((R - 0.5) ** 2 + Z ** 2) / 0.15 ** 2),
                "omega_theta")
            u = velocity_from_vorticity(omega, KernelTable(32))
            vals.append(np.abs(u.u_r.values[0]).max() / np.abs(u.u_r.values).max())
        assert vals[1] < vals[0]

    def test_theta_refinement_converges(self, setup):
        g, _, omega = setup
        prev = None
        diffs = []
        for n_theta in (16, 32, 64, 128):
            u = velocity_from_vorticity(omega, KernelTable(n_theta))
            cur = np.stack([u.u_r.values, u.u_z.values])
            if prev is not None:
                diffs.append(np.abs(cur - prev).max())
            prev = cur
        assert diffs[0] > diffs[1] > diffs[2]


class TestUrOverR:
    def test_zero(self, setup):
        g, _, _ = setup
        u = VelocityField(zero_field(g, "u_r"), zero_field(g, "u_z"))
        out = ur_over_r(u)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_linear_in_r_is_exact(self, setup):
        g, _, _ = setup
        gz = np.sin(g.z)
        u = VelocityField(
            ScalarField(g, g.r[:, None] * gz[None, :], "u_r"),
            zero_field(g, "u_z"))
        out = ur_over_r(u)
        np.testing.assert_allclose(
            out.values, np.broadcast_to(gz, (g.n_r, g.n_z)), atol=1e-14)
