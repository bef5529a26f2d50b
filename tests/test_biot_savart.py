import tracemalloc

import numpy as np
import pytest

from axivisc import biot_savart
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


def naive_velocity(omega, kt):
    """Per-node broadcast quadrature, complex rFFT of the circular embedding."""
    g = omega.grid
    n_r, n_z = g.n_r, g.n_z
    delta = 0.5 * np.hypot(g.dr, g.dz)
    rt = g.r[:, None, None]
    rs = g.r[None, :, None]
    dzs = (np.arange(n_z) * g.dz)[None, None, :]
    k_r = np.zeros((n_r, n_r, n_z))
    k_z = np.zeros((n_r, n_r, n_z))
    for th, w in zip(kt.theta, kt.weights):
        c = np.cos(th)
        d = np.sqrt(rt * rt + rs * rs + dzs * dzs - 2.0 * c * rt * rs)
        inv_d3 = np.where(d >= delta, 1.0 / d ** 3, 0.0)
        k_r += w * c * dzs * inv_d3
        k_z -= w * (rt * c - rs) * inv_d3
    src_w = (g.dr * g.dz / (4.0 * np.pi)) * g.r[None, :, None]
    L = 2 * n_z
    vhat = np.fft.rfft(omega.values, n=L, axis=1)
    out = []
    for k, sign in ((k_r * src_w, -1.0), (k_z * src_w, 1.0)):
        circ = np.zeros((n_r, n_r, L))
        circ[:, :, :n_z] = k
        circ[:, :, n_z + 1:] = sign * k[:, :, :0:-1]
        spec = np.fft.rfft(circ, axis=2)
        out.append(np.fft.irfft(np.einsum("tsk,sk->tk", spec, vhat), n=L,
                                axis=1)[:, :n_z])
    return out


def bumpy_omega(n_r, n_z):
    g = make_grid(2.0, -2.0, 2.0, n_r, n_z)
    R = g.r[:, None]
    Z = g.z[None, :]
    rng = np.random.default_rng(3)
    vals = (R * np.exp(-((R - 0.5) ** 2 + (Z - 0.2) ** 2) / 0.3 ** 2)
            + 0.1 * rng.normal(size=(n_r, n_z)))
    return g, ScalarField(g, vals, "omega_theta")


class TestSpectralTable:
    # on the 8x64 grid dr = 4 dz, so the cut-off D < delta reaches the
    # shifts 0..2; one shift per block puts them in separate blocks
    @pytest.mark.parametrize("n_r,n_z,n_theta,block", [
        (12, 24, 16, None), (12, 24, 32, None), (8, 64, 16, 1),
        (11, 24, 16, None)])
    def test_matches_naive_reference(self, n_r, n_z, n_theta, block,
                                     monkeypatch):
        if block is not None:
            monkeypatch.setattr(biot_savart, "_BLOCK_ELEMS", block)
        _, omega = bumpy_omega(n_r, n_z)
        kt = KernelTable(n_theta)
        u = velocity_from_vorticity(omega, kt)
        ref_r, ref_z = naive_velocity(omega, kt)
        for got, ref in ((u.u_r.values, ref_r), (u.u_z.values, ref_z)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_block_size_does_not_change_table(self, monkeypatch):
        g, _ = bumpy_omega(12, 24)
        tables = []
        for elems in (1, 5 * g.n_r * g.n_r, 1 << 30):
            monkeypatch.setattr(biot_savart, "_BLOCK_ELEMS", elems)
            tables.append(biot_savart._spectral_velocity_kernels(g, KernelTable(16)))
        for other in tables[1:]:
            for a, b in zip(tables[0], other):
                np.testing.assert_array_equal(a, b)

    def test_build_peak_memory_near_table_bytes(self):
        # quadrature blocks are small and the DCT/DST run in place, so the
        # build holds little beyond the table itself (a copied spectrum
        # would add half the table)
        g = make_grid(2.0, -2.0, 2.0, 96, 192)
        tracemalloc.start()
        try:
            tables = biot_savart._spectral_velocity_kernels(g, KernelTable(16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * sum(t.nbytes for t in tables)

    def test_tables_are_real_frequency_first(self):
        g, omega = bumpy_omega(12, 24)
        kt = KernelTable(16)
        velocity_from_vorticity(omega, kt)
        (tables,) = kt._cache.values()
        assert len(tables) == 2
        for t in tables:
            assert t.dtype == np.float64
            assert t.shape == (g.n_z + 1, g.n_r, g.n_r)


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
