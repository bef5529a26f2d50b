import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.fft
from scipy.linalg import eigh_tridiagonal
from scipy.special import ellipe, ellipk, ellipkm1

from axivisc import biot_savart
from axivisc.biot_savart import KernelTable, velocity_from_vorticity
from axivisc.grid import (ScalarField, VelocityField, make_grid, ur_over_r,
                          zero_field)


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
    def test_n_theta_does_not_change_velocity(self, setup):
        _, _, omega = setup
        a = velocity_from_vorticity(omega, KernelTable(16))
        # 15 was refused while the count chose a theta' quadrature
        for n in (15, 128):
            b = velocity_from_vorticity(omega, KernelTable(n))
            np.testing.assert_array_equal(a.u_r.values, b.u_r.values)
            np.testing.assert_array_equal(a.u_z.values, b.u_z.values)


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

def naive_velocity(omega, n_theta):
    """Free-space Biot-Savart quadrature: a midpoint theta' rule of n_theta
    nodes, cells nearer than half their diagonal skipped, per-node broadcast,
    summed over sources as a circular convolution in z."""
    g = omega.grid
    n_r, n_z = g.n_r, g.n_z
    delta = 0.5 * np.hypot(g.dr, g.dz)
    rt = g.r[:, None, None]
    rs = g.r[None, :, None]
    dzs = (np.arange(n_z) * g.dz)[None, None, :]
    k_r = np.zeros((n_r, n_r, n_z))
    k_z = np.zeros((n_r, n_r, n_z))
    w = 2.0 * np.pi / n_theta
    for th in w * (np.arange(n_theta) + 0.5):
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


def dense_stream_velocity(omega):
    """The stream-function discretisation assembled as a dense matrix and
    solved with np.linalg.solve; wall values from a pair-by-pair G_psi sum."""
    g = omega.grid
    n_r, n_z, dr, dz = g.n_r, g.n_z, g.dr, g.dz
    r = g.r
    faces = np.arange(n_r + 1) * dr
    vol = (faces[1:] ** 4 - faces[:-1] ** 4) / 4.0
    A = np.zeros((n_r * n_z, n_r * n_z))
    for i in range(n_r):
        for j in range(n_z):
            p = i * n_z + j
            for ii, f in ((i - 1, faces[i]), (i + 1, faces[i + 1])):
                c = f ** 3 / (dr * vol[i])
                if ii == n_r:           # r_max ghost 2g - phi
                    A[p, p] -= 2.0 * c
                elif ii >= 0:           # the axis face (f = 0) adds nothing
                    A[p, p] -= c
                    A[p, ii * n_z + j] += c
            for jj in (j - 1, j + 1):
                if 0 <= jj < n_z:
                    A[p, p] -= 1.0 / dz ** 2
                    A[p, i * n_z + jj] += 1.0 / dz ** 2
                else:                   # z-wall ghost 2g - phi
                    A[p, p] -= 2.0 / dz ** 2

    def solve(g_lo, g_hi, g_out):
        rhs = -omega.values / r[:, None]
        rhs[:, 0] -= 2.0 * g_lo / dz ** 2
        rhs[:, -1] -= 2.0 * g_hi / dz ** 2
        rhs[-1] -= 2.0 * faces[-1] ** 3 / (dr * vol[-1]) * g_out
        return np.linalg.solve(A, rhs.ravel()).reshape(n_r, n_z)

    phi0 = solve(np.zeros(n_r), np.zeros(n_r), np.zeros(n_z))
    # wall panels: (r, z, panel length, half-cell distance, phi_0 inside)
    panels = ([(r[i], g.z_min, dr, dz, phi0[i, 0]) for i in range(n_r)]
              + [(r[i], g.z_max, dr, dz, phi0[i, -1]) for i in range(n_r)]
              + [(g.r_max, g.z[j], dz, dr, phi0[-1, j]) for j in range(n_z)])
    wall = np.zeros(len(panels))
    for a, (rb, zb, _, _, _) in enumerate(panels):
        for b, (rs, zs, ds, h, p0) in enumerate(panels):
            if a == b:
                G = (rb / (2.0 * np.pi)) * (np.log(16.0 * rb / ds) - 1.0)
            else:
                m = 4.0 * rb * rs / ((rb + rs) ** 2 + (zb - zs) ** 2)
                k = np.sqrt(m)
                G = (np.sqrt(rb * rs) / (2.0 * np.pi)) * (
                    (2.0 / k - k) * ellipk(m) - (2.0 / k) * ellipe(m))
            # g = -sum G_psi/(r^2 r'^2) (-2 phi_0/h) r'^3 dS'
            wall[a] += G / (rb ** 2 * rs ** 2) * (2.0 * p0 / h) * rs ** 3 * ds
    g_lo, g_hi, g_out = wall[:n_r], wall[n_r:2 * n_r], wall[2 * n_r:]
    phi = solve(g_lo, g_hi, g_out)
    P = np.empty((n_r + 2, n_z + 2))
    P[1:-1, 1:-1] = phi
    P[0, 1:-1] = phi[0]                 # even axis ghost
    P[-1, 1:-1] = 2.0 * g_out - phi[-1]
    P[1:-1, 0] = 2.0 * g_lo - phi[:, 0]
    P[1:-1, -1] = 2.0 * g_hi - phi[:, -1]
    u_r = -r[:, None] * (P[1:-1, 2:] - P[1:-1, :-2]) / (2.0 * dz)
    u_z = 2.0 * phi + r[:, None] * (P[2:, 1:-1] - P[:-2, 1:-1]) / (2.0 * dr)
    return u_r, u_z


def bumpy_omega(n_r, n_z, box=(2.0, -2.0, 2.0)):
    g = make_grid(*box, n_r, n_z)
    R = g.r[:, None]
    Z = g.z[None, :]
    rng = np.random.default_rng(3)
    vals = (R * np.exp(-((R - 0.5) ** 2 + (Z - 0.2) ** 2) / 0.3 ** 2)
            + 0.1 * rng.normal(size=(n_r, n_z)))
    return g, ScalarField(g, vals, "omega_theta")


class TestSpectralTable:
    # the DST-II/eigenbasis solve against the dense matrix of the same
    # discretisation; the last box has an odd n_z and is not centred on
    # z = 0, so the mirrored z_max blocks of the wall Green's matrix meet
    # the dense reference's pair-by-pair sum (the ids keep the names they
    # had when the matrix was built in row blocks)
    @pytest.mark.parametrize("box,n_r,n_z,n_theta", [
        pytest.param((2.0, -2.0, 2.0), 12, 24, 16, id="12-24-16-None"),
        pytest.param((2.0, -2.0, 2.0), 12, 24, 32, id="12-24-32-None"),
        pytest.param((2.0, -2.0, 2.0), 8, 64, 16, id="8-64-16-1"),
        pytest.param((2.0, -2.0, 2.0), 11, 24, 16, id="11-24-16-None"),
        pytest.param((1.5, -1.0, 3.0), 10, 25, 16, id="off-centre-10-25")])
    def test_matches_naive_reference(self, box, n_r, n_z, n_theta):
        _, omega = bumpy_omega(n_r, n_z, box)
        u = velocity_from_vorticity(omega, KernelTable(n_theta))
        ref_r, ref_z = dense_stream_velocity(omega)
        for got, ref in ((u.u_r.values, ref_r), (u.u_z.values, ref_z)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def ring_omega(n_r, z0=0.0):
    g = make_grid(2.0, -2.0, 2.0, n_r, 2 * n_r)
    R = g.r[:, None]
    Z = g.z[None, :]
    return ScalarField(g, R * np.exp(-((R - 0.7) ** 2 + (Z - z0) ** 2) / 0.3 ** 2),
                       "omega_theta")


class TestStreamSolver:
    def test_converges_to_naive_quadrature(self):
        # with 128 theta' nodes the quadrature's own error stays below the
        # solve's on these grids, so the gap shrinks at second order (3.96x)
        diffs = []
        for n_r in (16, 32):
            omega = ring_omega(n_r)
            u = velocity_from_vorticity(omega, KernelTable())
            ref_r, ref_z = naive_velocity(omega, 128)
            diffs.append(max(np.abs(u.u_r.values - ref_r).max(),
                             np.abs(u.u_z.values - ref_z).max()))
        assert diffs[1] * 3.0 <= diffs[0]

    def test_wall_values_match_direct_green_sum(self):
        # phi = psi/r^2 on the walls, summed directly from the interior:
        # g(x_b) = sum G_psi(x_b, x') omega(x') dr dz / r_b^2
        omega = ring_omega(24, z0=0.2)
        g = omega.grid
        _, *walls = biot_savart._stream_function(omega, KernelTable())
        rb, zb, _, _ = biot_savart._walls(g)
        G = biot_savart._green_psi(rb[:, None, None], zb[:, None, None],
                                   g.r[:, None], g.z[None, :])
        direct = np.einsum("bij,ij->b", G, omega.values) * g.dr * g.dz / rb ** 2
        scale = np.abs(direct).max()
        n = g.n_r
        for got, ref in zip(walls, (direct[:n], direct[n:2 * n], direct[2 * n:])):
            assert np.abs(got - ref).max() <= 1e-2 * scale

    def test_wall_green_evaluates_each_distinct_value_once(self, monkeypatch):
        # G_psi depends on r, r' and |z - z'| only: the (2 n_r + n_z)^2 wall
        # pairs take n_r^2 + n_r n_z + n_z - 1 distinct values, and the self
        # elements take the panel mean instead
        n_r, n_z = 24, 48
        pairs = []

        def recording_green_psi(r, z, rs, zs):
            pairs.append(np.broadcast_arrays(r, z, rs, zs))
            return green_psi(r, z, rs, zs)

        green_psi = biot_savart._green_psi
        monkeypatch.setattr(biot_savart, "_green_psi", recording_green_psi)
        biot_savart._stream_solver(make_grid(2.0, -2.0, 2.0, n_r, n_z),
                                   KernelTable())
        assert sum(r.size for r, _, _, _ in pairs) <= n_r ** 2 + n_r * n_z + n_z - 1
        for r, z, rs, zs in pairs:
            assert not np.any((r == rs) & (z == zs))

    @pytest.mark.parametrize("box,n_r,n_z", [
        ((2.0, -2.0, 2.0), 12, 24), ((2.0, -2.0, 2.0), 11, 24),
        ((2.0, -2.0, 2.0), 8, 64), ((2.0, -2.0, 2.0), 96, 192),
        ((1.5, -1.0, 3.0), 10, 25)],
        ids=["12x24", "11x24", "8x64", "96x192", "off-centre-10x25"])
    def test_wall_green_matches_entrywise_matrix(self, box, n_r, n_z):
        # G_psi at every wall pair, self elements overwritten by the panel
        # mean; the assembled blocks differ by rounding in |z - z'| only
        g = make_grid(*box, n_r, n_z)
        rb, zb, ds, _ = biot_savart._walls(g)
        ref = biot_savart._green_psi(rb[:, None], zb[:, None], rb, zb)
        np.fill_diagonal(ref, (rb / (2.0 * np.pi)) * (np.log(16.0 * rb / ds) - 1.0))
        got = biot_savart._wall_green(g, rb, ds)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_setup_memory_at_384x768(self):
        # a dense theta' table would hold 2 (n_z+1) n_r^2 doubles, 1.8 GB here
        g = make_grid(2.0, -2.0, 2.0, 384, 768)
        tracemalloc.start()
        try:
            biot_savart._stream_solver(g, KernelTable())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    def test_cache_entry_is_a_tuple_of_arrays(self):
        omega = ring_omega(12)
        kt = KernelTable()
        velocity_from_vorticity(omega, kt)
        (entry,) = kt._cache.values()
        assert isinstance(entry, tuple)
        assert all(isinstance(a, np.ndarray) and a.dtype == np.float64
                   for a in entry)


def scipy_green_psi(r, z, rs, zs):
    """G_psi in the closed form of complete elliptic integrals, from scipy;
    K from the complementary parameter 1 - m, formed without cancelling
    (ellipk(m) loses 6e-13 on the outermost z-wall panels at 96x192)."""
    d2 = (r + rs) ** 2 + (z - zs) ** 2
    m = 4.0 * r * rs / d2
    k = np.sqrt(m)
    K = ellipkm1(((r - rs) ** 2 + (z - zs) ** 2) / d2)
    return (np.sqrt(r * rs) / (2.0 * np.pi)) * (
        (2.0 / k - k) * K - (2.0 / k) * ellipe(m))


def mpmath_green_psi(r, z, rs, zs):
    """G_psi at 40 digits, from the float inputs taken exactly."""
    with mpmath.workdps(40):
        r, z, rs, zs = (mpmath.mpf(float(x)) for x in (r, z, rs, zs))
        m = 4 * r * rs / ((r + rs) ** 2 + (z - zs) ** 2)
        k = mpmath.sqrt(m)
        return float(mpmath.sqrt(r * rs) / (2 * mpmath.pi) * (
            (2 / k - k) * mpmath.ellipk(m) - (2 / k) * mpmath.ellipe(m)))


def near_singular_pairs():
    """Ring pairs close to coincidence: r = r' = 0.7 at small gaps (at 1e-8,
    4 r r' / d^2 rounds to 1), and at 96x192 and 384x768 the two outermost
    z_min panels and the corner pair of z_min and r_max panels."""
    pairs = [pytest.param((0.7, 0.0, 0.7, gap), id=f"gap{gap:g}")
             for gap in (1e-3, 1e-5, 1e-7, 1e-8)]
    for n_r in (96, 384):
        g = make_grid(2.0, -2.0, 2.0, n_r, 2 * n_r)
        r = g.r
        pairs += [pytest.param((r[-1], g.z_min, r[-2], g.z_min), id=f"z-wall-{n_r}"),
                  pytest.param((r[-1], g.z_min, g.r_max, g.z[0]), id=f"corner-{n_r}")]
    return pairs


class TestNumpyAgainstScipy:
    # the solver's numpy forms of what it once took from scipy, with scipy
    # (and mpmath) as the references

    @pytest.mark.parametrize("n", [5, 24, 25, 192])
    @pytest.mark.parametrize("shape", [(), (7,)], ids=["1d", "2d"])
    def test_dst(self, n, shape):
        x = np.random.default_rng(n).normal(size=shape + (n,))
        tw = biot_savart._twiddles(n)
        for inverse, ref in ((False, scipy.fft.dst), (True, scipy.fft.idst)):
            got = biot_savart._dst(x.copy(), tw, inverse)
            want = ref(x, type=2, norm="ortho")
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("box,n_r,n_z", [
        ((2.0, -2.0, 2.0), 96, 192), ((1.5, -1.0, 3.0), 10, 25)],
        ids=["96x192", "off-centre-10x25"])
    def test_green_psi_per_wall_block(self, box, n_r, n_z):
        g = make_grid(*box, n_r, n_z)
        rb, zb, _, _ = biot_savart._walls(g)
        got = biot_savart._green_psi(rb[:, None], zb[:, None], rb, zb)
        off = ~np.eye(len(rb), dtype=bool)
        want = np.where(off, scipy_green_psi(rb[:, None], zb[:, None], rb, zb), 0.0)
        walls = (slice(None, n_r), slice(n_r, 2 * n_r), slice(2 * n_r, None))
        for a in walls:
            for b in walls:
                err = np.abs(np.where(off, got, 0.0) - want)[a, b].max()
                assert err <= 1e-13 * np.abs(want[a, b]).max()

    @pytest.mark.parametrize("m", [2e-5, 1e-3])
    def test_green_psi_small_m_against_mpmath(self, m):
        # the elliptic closed form cancels here: scipy's loses 4e-6 at 2e-5
        gap = np.sqrt(4.0 / m - 4.0)
        got = biot_savart._green_psi(np.array([1.0]), 0.0, 1.0, gap)[0]
        with mpmath.workdps(40):
            mm = 4 / (4 + mpmath.mpf(float(gap)) ** 2)
            k = mpmath.sqrt(mm)
            want = float((2 / k - k) * mpmath.ellipk(mm)
                         - (2 / k) * mpmath.ellipe(mm)) / (2 * np.pi)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("pair", near_singular_pairs())
    def test_green_psi_near_singular_against_mpmath(self, pair):
        # 1 - m cancels here; the AGM takes it as ((r-r')^2 + (z-z')^2)/d^2
        r, z, rs, zs = pair
        got = biot_savart._green_psi(np.array([r]), z, rs, zs)[0]
        want = mpmath_green_psi(r, z, rs, zs)
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("n_r", [8, 96])
    def test_radial_eigenpairs(self, n_r):
        g = make_grid(2.0, -2.0, 2.0, n_r, 24)
        s = biot_savart._stream_solver(g, KernelTable())
        faces = np.arange(n_r + 1) * g.dr
        vol = np.diff(faces ** 4) / 4.0
        flux = faces ** 3 / g.dr
        diag = -(flux[:-1] + flux[1:])
        diag[-1] -= flux[-1]
        sq = np.sqrt(vol)
        eig, vec = eigh_tridiagonal(diag / vol, flux[1:-1] / (sq[:-1] * sq[1:]))
        eig_z0 = -(4.0 / g.dz ** 2) * np.sin(np.pi / (2 * g.n_z)) ** 2
        np.testing.assert_allclose(1.0 / s.inv_eig[:, 0] - eig_z0, eig,
                                   rtol=1e-12, atol=1e-12 * np.abs(eig).max())
        # the same orthonormal eigenvectors, up to sign
        overlap = np.abs(vec.T @ (s.to_radial / sq).T)
        np.testing.assert_allclose(overlap, np.eye(n_r), atol=1e-10)


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
