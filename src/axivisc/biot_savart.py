"""Velocity reconstruction from the azimuthal vorticity.

The 3-D Biot-Savart law reduces, for axisymmetric swirl-free fields, to
explicit (r, r', theta', z-z') kernels:

    u^r(r,z) = -(1/4pi) int cos(th') (z-z') / D^3  w(r',z') r' dr' dth' dz'
    u^z(r,z) =  (1/4pi) int (r cos(th') - r') / D^3 w(r',z') r' dr' dth' dz'
    D^2 = r^2 + r'^2 - 2 r r' cos(th') + (z-z')^2

The theta' integral is a trapezoid rule on the periodic circle (spectrally
accurate).  Since the kernels depend on z and z' only through z-z' on a
uniform grid, the quadrature over theta' is precomputed into a table indexed
by (r, r', dz-shift) and the remaining sum over sources is a circular
convolution in z, done by FFT.  Quadrature points with D below half the cell
diagonal are skipped (hard desingularization of the self-cell).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, ScalarField, VelocityField


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
    """rfft-in-z of the (u^r, u^z) kernel tables, each (n_z+1, n_r, n_r) complex."""
    key = ("uv", grid.key())
    if key in kt._cache:
        return kt._cache[key]

    r = grid.r
    dz = grid.dz
    n_r, n_z = grid.n_r, grid.n_z
    delta = 0.5 * np.hypot(grid.dr, dz)
    # z-shift axis holds Delta = (j_target - j_source) in 0..n_z-1; negative
    # shifts follow from parity (u^r kernel odd in z-z', u^z kernel even).
    zsep = np.arange(n_z) * dz

    rt = r[:, None, None]      # target radius
    rs = r[None, :, None]      # source radius
    dzs = zsep[None, None, :]

    k_r = np.zeros((n_r, n_r, n_z))
    k_z = np.zeros((n_r, n_r, n_z))
    base = rt * rt + rs * rs + dzs * dzs
    for th, w in zip(kt.theta, kt.weights):
        c = np.cos(th)
        d2 = base - (2.0 * c) * rt * rs
        d = np.sqrt(d2)
        inv_d3 = np.zeros_like(d)
        np.divide(1.0, d2 * d, out=inv_d3, where=d >= delta)
        # overall sign from u = (1/4pi) int omega x (X-X') / D^3: this is the
        # orientation for which curl(u) reproduces omega^theta = dz u^r - dr u^z
        k_r += (w * c) * dzs * inv_d3
        k_z += (-w) * (rt * c - rs) * inv_d3

    # fold the source measure r' dr dz and the 1/4pi prefactor into the tables
    src_w = (grid.dr * dz / (4.0 * np.pi)) * r
    k_r *= src_w[None, :, None]
    k_z *= src_w[None, :, None]

    spec = (_to_spectral(k_r, odd=True, n_z=n_z),
            _to_spectral(k_z, odd=False, n_z=n_z))
    kt._cache[key] = spec
    return spec


def _to_spectral(k_pos: np.ndarray, odd: bool, n_z: int) -> np.ndarray:
    """Embed a Delta>=0 kernel into a circular kernel of length 2*n_z and rfft it.

    Returns shape (n_z+1, n_r, n_r), frequency first so the per-call
    contraction is a batched matmul.
    """
    n_r = k_pos.shape[0]
    L = 2 * n_z
    circ = np.zeros((n_r, n_r, L))
    circ[:, :, :n_z] = k_pos
    sign = -1.0 if odd else 1.0
    circ[:, :, L - n_z + 1:] = sign * k_pos[:, :, 1:][:, :, ::-1]
    spec = np.fft.rfft(circ, axis=2)
    return np.ascontiguousarray(np.moveaxis(spec, 2, 0))


def _apply_spectral(spec: np.ndarray, values: np.ndarray, n_z: int) -> np.ndarray:
    L = 2 * n_z
    pad = np.zeros((values.shape[0], L))
    pad[:, :n_z] = values
    vhat = np.fft.rfft(pad, axis=1)            # (n_r, n_z+1)
    out_hat = np.matmul(spec, vhat.T[:, :, None])[:, :, 0]   # (n_z+1, n_r)
    out = np.fft.irfft(out_hat.T, n=L, axis=1)[:, :n_z]
    return out


def velocity_from_vorticity(omega: ScalarField, kt: KernelTable) -> VelocityField:
    """Reconstruct (u^r, u^z) from omega^theta by kernel quadrature."""
    if omega.role != "omega_theta":
        raise ValueError(f"expected role omega_theta, got {omega.role!r}")
    omega.check_finite()
    g = omega.grid
    spec_r, spec_z = _spectral_velocity_kernels(g, kt)
    ur = _apply_spectral(spec_r, omega.values, g.n_z)
    uz = _apply_spectral(spec_z, omega.values, g.n_z)
    return VelocityField(ScalarField(g, ur, "u_r"), ScalarField(g, uz, "u_z"))


def ur_over_r(u: VelocityField) -> ScalarField:
    """Pointwise u^r / r; well defined since all nodes are off-axis."""
    g = u.grid
    return ScalarField(g, u.u_r.values / g.r[:, None], "derived")

