"""Velocity reconstruction from the azimuthal vorticity.

The 3-D Biot-Savart law reduces, for axisymmetric swirl-free fields, to
explicit (r, r', theta', z-z') kernels:

    u^r(r,z) = -(1/4pi) int cos(th') (z-z') / D^3  w(r',z') r' dr' dth' dz'
    u^z(r,z) =  (1/4pi) int (r cos(th') - r') / D^3 w(r',z') r' dr' dth' dz'
    D^2 = r^2 + r'^2 - 2 r r' cos(th') + (z-z')^2

The theta' integral is a trapezoid rule on the periodic circle (spectrally
accurate), with the mirror nodes theta' and 2pi-theta' (equal cosines) summed
as one.  The kernels depend on z and z' only through z-z' on a uniform grid,
so the quadrature is precomputed, in fixed-size blocks of z-shifts, into a
(z-shift, r, r') table, and the sum over sources is a circular convolution in
z.  D is symmetric in r <-> r', so the two theta' sums are taken on the pairs
r <= r' only and unpacked into both triangles.  The even u^z kernel is stored
as its real DCT-I spectrum, the odd u^r kernel as its DST-I (its spectrum
divided by -i), both transformed in place.  Quadrature points with D below
half the cell diagonal are skipped (hard desingularization of the self-cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sp_fft

from .grid import GridSpec, ScalarField, VelocityField

# packed (r <= r') elements per block of z-shifts in the table build; every
# operation is elementwise, so the value only trades cache reuse against loop
# overhead
_BLOCK_ELEMS = 1 << 15


@dataclass
class KernelTable:
    """Theta'-quadrature rule plus a per-grid cache of spectral kernels."""

    n_theta: int = 64
    theta: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    _cache: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        if self.n_theta < 16 or self.n_theta % 2 != 0:
            raise ValueError(f"n_theta must be even and >= 16, got {self.n_theta}")
        # midpoint-shifted uniform nodes: same spectral accuracy on the
        # periodic circle, but no node sits on the near-field kernel peak
        # at theta'=0, which keeps close source cells from being overweighted
        self.theta = 2.0 * np.pi * (np.arange(self.n_theta) + 0.5) / self.n_theta
        self.weights = np.full(self.n_theta, 2.0 * np.pi / self.n_theta)


def _spectral_velocity_kernels(grid: GridSpec, kt: KernelTable):
    """Real z-spectra of the u^r (over -i) and u^z kernels, each (n_z+1, n_r, n_r)."""
    if grid in kt._cache:
        return kt._cache[grid]

    r, dz, n_r, n_z = grid.r, grid.dz, grid.n_r, grid.n_z
    delta = 0.5 * np.hypot(grid.dr, dz)
    rt, rs = r[:, None], r[None, :]    # target, source radius
    # D is symmetric in r <-> r': sum the quadrature on the pairs i <= j only,
    # with every term symmetric bit for bit, and unpack (i, j) and (j, i)
    # from the same packed entry
    pi, pj = np.triu_indices(n_r)
    packed = np.empty((n_r, n_r), dtype=np.intp)
    packed[pi, pj] = packed[pj, pi] = np.arange(len(pi))
    ri, rj = r[pi], r[pj]
    rr = ri * ri + rj * rj
    # nodes k and n-1-k share cos(theta'): sum half of them at the pair weight
    half = kt.n_theta // 2
    cos_th = np.cos(kt.theta[:half])
    w_pair = kt.weights[:half] + kt.weights[::-1][:half]
    cross = (2.0 * cos_th)[:, None] * (ri * rj)
    # fold the source measure r' dr dz and the 1/4pi prefactor into the tables
    src_w = (grid.dr * dz / (4.0 * np.pi)) * r

    # leading axis: z-shift Delta = j_target - j_source in 0..n_z-1; negative
    # shifts follow from parity (u^r kernel odd in z-z', u^z kernel even)
    k_r, k_z = np.zeros((2, n_z + 1, n_r, n_r))
    step = max(1, _BLOCK_ELEMS // len(pi))
    for a in range(0, n_z, step):
        b = min(a + step, n_z)
        dzs = (np.arange(a, b) * dz)[:, None]
        base = rr + dzs * dzs
        s_c, s_1, d2, d, term = np.zeros((5,) + base.shape)
        near = a * dz < delta    # D >= |z-z'|: far shifts never meet the cut-off
        for cross_k, c, w in zip(cross, cos_th, w_pair):
            np.subtract(base, cross_k, out=d2)
            np.sqrt(d2, out=d)
            np.divide(w, np.multiply(d2, d, out=d2), out=term)
            if near:
                term[d < delta] = 0.0
            s_1 += term
            s_c += np.multiply(term, c, out=term)
        # u = (1/4pi) int omega x (X-X') / D^3: the orientation for which
        # curl(u) reproduces omega^theta = dz u^r - dr u^z.
        # k_r = dz S_c src_w, k_z = (r' S_1 - r S_c) src_w; the indices are
        # in range, and mode="clip" skips take's buffered bounds check
        kr, kz = k_r[a:b], k_z[a:b]
        np.take(s_c, packed, axis=1, out=kr, mode="clip")
        np.take(s_1, packed, axis=1, out=kz, mode="clip")
        np.multiply(kz, rs, out=kz)
        np.subtract(kz, np.multiply(rt, kr), out=kz)
        np.multiply(kz, src_w, out=kz)
        np.multiply(kr, dzs[:, :, None], out=kr)
        np.multiply(kr, src_w, out=kr)

    # spectra of the length-2n_z circular embeddings: the even one of k_z is
    # DCT-I(k_z, 0); the odd one of k_r is -i DST-I(k_r[1:n_z]), zero at 0 and
    # n_z.  Both run in place; copy back only if scipy did not (assigning a
    # view to itself would copy it through a transient)
    k_z = sp_fft.dct(k_z, type=1, axis=0, overwrite_x=True)
    spec = sp_fft.dst(k_r[1:n_z], type=1, axis=0, overwrite_x=True)
    if not np.may_share_memory(spec, k_r):
        k_r[1:n_z] = spec
    k_r[0] = 0.0
    kt._cache[grid] = (k_r, k_z)
    return k_r, k_z


def _apply_spectral(spec: np.ndarray, vhat: np.ndarray, phase, n_z: int) -> np.ndarray:
    """z-convolution: spec @ vhat per frequency, times phase, back to z."""
    out_hat = phase * np.matmul(spec, vhat).view(np.complex128)[..., 0]
    return np.fft.irfft(out_hat.T, n=2 * n_z, axis=1)[:, :n_z]


def velocity_from_vorticity(omega: ScalarField, kt: KernelTable) -> VelocityField:
    """Reconstruct (u^r, u^z) from omega^theta by kernel quadrature."""
    if omega.role != "omega_theta":
        raise ValueError(f"expected role omega_theta, got {omega.role!r}")
    omega.check_finite()
    g = omega.grid
    spec_r, spec_z = _spectral_velocity_kernels(g, kt)
    # rfft of the zero-padded columns as (Re, Im) pairs, frequency first
    vhat = np.fft.rfft(omega.values, n=2 * g.n_z, axis=1).T.copy()
    vhat = vhat.view(np.float64).reshape(g.n_z + 1, g.n_r, 2)
    ur = _apply_spectral(spec_r, vhat, -1j, g.n_z)
    uz = _apply_spectral(spec_z, vhat, 1.0, g.n_z)
    return VelocityField(ScalarField(g, ur, "u_r"), ScalarField(g, uz, "u_z"))


def ur_over_r(u: VelocityField) -> ScalarField:
    """Pointwise u^r / r; well defined since all nodes are off-axis."""
    g = u.grid
    return ScalarField(g, u.u_r.values / g.r[:, None], "derived")

