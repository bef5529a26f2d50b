import numpy as np
import pytest

from axivisc.grid import (ScalarField, VelocityField, axis_ghost,
                          cylindrical_integral, ddr, ddz, divergence,
                          load_field, make_grid, save_field,
                          shared_cell_measure, zero_field)


def field(g, fn, role="derived"):
    R = g.r[:, None]
    Z = g.z[None, :]
    return ScalarField(g, fn(R, Z), role)


class TestMakeGrid:
    def test_cell_centered_nodes(self):
        g = make_grid(1.0, -1.0, 1.0, 4, 4)
        assert g.dr == 0.25
        np.testing.assert_allclose(g.r, [0.125, 0.375, 0.625, 0.875])

    def test_cell_measure(self):
        g = make_grid(2.0, 0.0, 1.0, 4, 4)
        assert g.cell_measure()[0, 0] == pytest.approx(2 * np.pi * 0.25 * 0.5 * 0.25)

    def test_cell_measure_is_built_once_per_grid(self):
        # the weighted sums share one read-only array; callers get a copy
        g = make_grid(2.0, 0.0, 1.0, 4, 4)
        shared = shared_cell_measure(g)
        assert shared_cell_measure(make_grid(2.0, 0.0, 1.0, 4, 4)) is shared
        assert not shared.flags.writeable
        mine = g.cell_measure()
        np.testing.assert_array_equal(mine, shared)
        mine[0, 0] = -1.0
        assert shared[0, 0] > 0.0

    @pytest.mark.parametrize("args", [
        (-1, 0, 1, 4, 4),
        (1, 1, 0, 4, 4),
        (1, 0, 1, 3, 4),
        (1, 0, 1, 4, 2),
    ])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)


class TestDerivatives:
    def test_constant_field(self):
        g = make_grid(1.0, 0.0, 1.0, 8, 8)
        f = ScalarField(g, np.full((8, 8), 3.0), "q_omega_over_r")
        np.testing.assert_allclose(ddr(f).values, 0.0, atol=1e-14)
        np.testing.assert_allclose(ddz(f).values, 0.0, atol=1e-14)

    def test_linear_in_z_exact(self):
        g = make_grid(1.0, -1.0, 1.0, 8, 8)
        f = field(g, lambda R, Z: Z + 0 * R)
        np.testing.assert_allclose(ddz(f).values, 1.0, atol=1e-13)

    def test_ddr_second_order_convergence(self):
        # interior error of ddr vs the analytic derivative drops ~4x per doubling
        errs = []
        for n in (32, 64):
            g = make_grid(1.0, -1.0, 1.0, n, 8)
            f = field(g, lambda R, Z: np.sin(R) * np.cos(Z), "q_omega_over_r")
            exact = np.cos(g.r)[:, None] * np.cos(g.z)[None, :]
            err = np.max(np.abs(ddr(f).values - exact)[1:-1, :])
            errs.append(err)
        assert errs[0] / errs[1] > 3.0

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = make_grid(1.0, 0.0, 1.0, 8, 8)
        f = ScalarField(g, rng.normal(size=(8, 8)), "omega_theta")
        h = ScalarField(g, rng.normal(size=(8, 8)), "omega_theta")
        s = ScalarField(g, f.values + h.values, "omega_theta")
        np.testing.assert_allclose(ddr(s).values,
                                   ddr(f).values + ddr(h).values, atol=1e-13)

    def test_axis_ghost_rules(self):
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        odd = ScalarField(g, np.arange(16.0).reshape(4, 4), "omega_theta")
        even = ScalarField(g, np.arange(16.0).reshape(4, 4), "q_omega_over_r")
        np.testing.assert_array_equal(axis_ghost(odd), -odd.values[0])
        np.testing.assert_array_equal(axis_ghost(even), even.values[0])

    def test_derived_role_has_no_ddr(self):
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        f = zero_field(g)
        with pytest.raises(ValueError, match="axis extension"):
            ddr(f)


class TestDivergence:
    def test_zero_velocity(self):
        g = make_grid(1.0, 0.0, 1.0, 8, 8)
        u = VelocityField(zero_field(g, "u_r"), zero_field(g, "u_z"))
        np.testing.assert_array_equal(divergence(u).values, 0.0)

    def test_z_independent_uz(self):
        g = make_grid(1.0, 0.0, 1.0, 8, 8)
        u = VelocityField(zero_field(g, "u_r"),
                          field(g, lambda R, Z: R ** 2 + 0 * Z, "u_z"))
        np.testing.assert_allclose(divergence(u).values, 0.0, atol=1e-13)

    def test_divergence_free_pair(self):
        # u^r = r z, u^z = -z^2: div = 2z - 2z = 0 analytically
        g = make_grid(1.0, -1.0, 1.0, 16, 16)
        u = VelocityField(field(g, lambda R, Z: R * Z, "u_r"),
                          field(g, lambda R, Z: -Z ** 2 + 0 * R, "u_z"))
        assert np.max(np.abs(divergence(u).values)) <= 1e-12


class TestCylindricalIntegral:
    def test_unit_field_exact(self):
        g = make_grid(1.0, 0.0, 1.0, 16, 16)
        f = ScalarField(g, np.ones((16, 16)))
        assert cylindrical_integral(f) == pytest.approx(np.pi, rel=1e-14)

    def test_zero_field(self):
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        assert cylindrical_integral(zero_field(g)) == 0.0

    def test_r_weighted_closed_form(self):
        g = make_grid(1.0, 0.0, 1.0, 64, 64)
        f = field(g, lambda R, Z: R + 0 * Z)
        exact = 2 * np.pi / 3  # 2 pi int r^2 dr dz over [0,1]x[0,1]
        assert cylindrical_integral(f) == pytest.approx(exact, rel=1e-3)

    def test_midpoint_exact_when_weighted_integrand_linear(self):
        # f = a + b/r makes f * r linear, which the midpoint rule integrates exactly
        g = make_grid(2.0, 0.0, 1.0, 8, 8)
        f = field(g, lambda R, Z: 3.0 + 1.0 / R + 0 * Z)
        exact = 2 * np.pi * (3 * 4 / 2 + 2)  # 2 pi int (3r + 1) dr dz
        assert cylindrical_integral(f) == pytest.approx(exact, rel=1e-13)


class TestSnapshots:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = make_grid(1.5, -0.5, 2.5, 8, 12)
        f = ScalarField(g, rng.normal(size=(8, 12)), "omega_theta")
        path = str(tmp_path / "snap")
        save_field(path, f, time=0.75)
        back, t = load_field(path)
        assert t == 0.75
        assert back.role == "omega_theta"
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)

    def test_shape_mismatch_rejected(self):
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="shape"):
            ScalarField(g, np.zeros((4, 5)))

    def test_unknown_role_rejected(self):
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="role"):
            ScalarField(g, np.zeros((4, 4)), "vorticity")
