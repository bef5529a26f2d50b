"""Velocity reconstruction from the azimuthal vorticity.

For axisymmetric swirl-free flow the Stokes stream function psi closes
omega^theta -> u (H. Lamb, Hydrodynamics).  Written as phi = psi/r^2,
which is even and smooth at the axis, it solves

    L phi = r^-3 d_r(r^3 d_r phi) + d_zz phi = -q,    q = omega/r,
    u^r = -r d_z phi,    u^z = 2 phi + r d_r phi,

in free space.  On the grid, the radial flux is discretised conservatively
with the cell weights V_i = (r_{i+1/2}^4 - r_{i-1/2}^4)/4; the axis face
carries no flux, and the faces r = r_max, z = z_min, z_max take a Dirichlet
value g through the half-cell ghost 2g - phi.  A DST-II diagonalises the z
part, with eigenvalues -(4/dz^2) sin^2(pi k / 2n_z), and the radial part,
symmetrised with V^(1/2), is eigendecomposed once per grid; a solve is one
DST-II, two n_r x n_r matmuls, one divide and one inverse DST-II.

The free-space wall values come by the method of R. A. James (J. Comput.
Phys. 25 (1977) 71) and K. Lackner (Comput. Phys. Commun. 12 (1976) 33):
solve once with g = 0; the outward normal derivative at a wall face is
-2 phi_0 / h, and Green's identity gives

    g(x_b) = -sum_b' G_phi(x_b, x_b') d_n phi_0(x_b') r'^3 dS',
    G_phi = G_psi / (r^2 r'^2),
    G_psi = (sqrt(r r') / 2pi) [(2/k - k) K(k) - (2/k) E(k)],
    k^2 = 4 r r' / ((r + r')^2 + (z - z')^2),

with the self element replaced by its panel mean (r/2pi)(ln(16 r/h) - 1).
The wall pairs take n_r^2 + n_r n_z + n_z - 1 distinct G_psi(r, r', |z - z'|).
The second solve, with g, differs from the first only by wall terms, a
rank-3 update of the first solve's radial spectrum.  Centred differences,
with the even axis ghost and the wall ghosts, then give the velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft as sp_fft
from scipy.linalg import eigh_tridiagonal, toeplitz
from scipy.special import ellipe, ellipk

from .grid import GridSpec, ScalarField, VelocityField


@dataclass
class KernelTable:
    """Per-grid cache of stream-function solvers; `n_theta` is accepted from
    older callers and configurations and read by nothing."""

    n_theta: int = 64
    _cache: dict = field(init=False, default_factory=dict)


class StreamSolver(NamedTuple):
    """The per-grid arrays of the phi solve (all float64)."""

    to_radial: np.ndarray     # (n_r, n_r): Q^T V^(1/2), r -> radial eigenbasis
    from_radial: np.ndarray   # (n_r, n_r): V^(-1/2) Q, back to r
    inv_eig: np.ndarray       # (n_r, n_z): 1 / (radial + vertical eigenvalue)
    wall_modes: np.ndarray    # (2, n_z): DST-II of the unit vectors at j = 0, n_z-1
    out_wall: np.ndarray      # (n_r,): to_radial of the r_max wall source per unit g
    green: np.ndarray         # (N_b, N_b): phi_0 next to the walls -> wall values g


def _dst(x, inverse=False):
    """Orthonormal DST-II (or its inverse) along z; may overwrite x, so
    every caller passes a temporary."""
    f = sp_fft.idst if inverse else sp_fft.dst
    return f(x, type=2, axis=-1, norm="ortho", overwrite_x=True)


def _walls(grid: GridSpec):
    """Wall faces z_min (n_r), z_max (n_r), r_max (n_z): position, panel
    length and the half-cell distance to the node inside."""
    n_r, n_z = grid.n_r, grid.n_z
    rb = np.concatenate([grid.r, grid.r, np.full(n_z, grid.r_max)])
    zb = np.concatenate([np.full(n_r, grid.z_min), np.full(n_r, grid.z_max), grid.z])
    ds = np.concatenate([np.full(2 * n_r, grid.dr), np.full(n_z, grid.dz)])
    h = np.concatenate([np.full(2 * n_r, grid.dz), np.full(n_z, grid.dr)])
    return rb, zb, ds, h


def _green_psi(r, z, rs, zs):
    """Free-space Stokes stream function at (r, z) of a unit ring at (rs, zs)."""
    m = 4.0 * r * rs / ((r + rs) ** 2 + (z - zs) ** 2)
    k = np.sqrt(m)
    return (np.sqrt(r * rs) / (2.0 * np.pi)) * (
        (2.0 / k - k) * ellipk(m) - (2.0 / k) * ellipe(m))


def _wall_green(grid: GridSpec) -> np.ndarray:
    """Matrix taking phi_0 next to the walls to the wall values g; each distinct
    G_psi is evaluated once (z walls by symmetry, z_max to r_max by mirror,
    r_max rows by transpose, r_max to itself Toeplitz), the self elements last."""
    rb, _, ds, h = _walls(grid)
    n_r, r, z, r_max = grid.n_r, grid.r, grid.z, grid.r_max
    green = np.empty((len(rb), len(rb)))
    lo, hi, out = slice(None, n_r), slice(n_r, 2 * n_r), slice(2 * n_r, None)
    for k, off, gap in ((1, 0, 0.0), (0, n_r, grid.z_max - grid.z_min)):
        i, j = np.triu_indices(n_r, k)
        green[i, j + off] = green[j, i + off] = _green_psi(r[i], 0.0, r[j], gap)
    green[hi, hi], green[hi, lo] = green[lo, lo], green[lo, hi]
    green[lo, out] = _green_psi(r[:, None], grid.z_min, r_max, z)
    green[hi, out] = green[lo, out][:, ::-1]
    green[out, :2 * n_r] = green[:2 * n_r, out].T
    green[out, out] = toeplitz(np.append(0.0, _green_psi(r_max, z[0], r_max, z[1:])))
    np.fill_diagonal(green, (rb / (2.0 * np.pi)) * (np.log(16.0 * rb / ds) - 1.0))
    # g = -sum G_phi d_n phi_0 r'^3 dS' = sum G_psi (r' / r^2) (2 phi_0 / h) dS'
    green *= rb * (2.0 * ds / h)
    green /= (rb ** 2)[:, None]
    return green


def _stream_solver(grid: GridSpec, kt: KernelTable) -> StreamSolver:
    """The grid's solver from the cache, set up on first use."""
    if grid in kt._cache:
        return kt._cache[grid]
    dr, dz, n_r, n_z = grid.dr, grid.dz, grid.n_r, grid.n_z
    faces = np.arange(n_r + 1) * dr
    vol = np.diff(faces ** 4) / 4.0
    flux = faces ** 3 / dr             # r^3 / dr at each face; 0 at the axis
    diag = -(flux[:-1] + flux[1:])
    diag[-1] -= flux[-1]               # wall ghost -phi doubles the r_max flux
    sq = np.sqrt(vol)
    eig_r, vec = eigh_tridiagonal(diag / vol, flux[1:-1] / (sq[:-1] * sq[1:]))
    eig_z = -(4.0 / dz ** 2) * np.sin(np.pi * np.arange(1, n_z + 1) / (2 * n_z)) ** 2
    ends = np.zeros((2, n_z))
    ends[0, 0] = ends[1, -1] = 1.0
    to_radial = np.ascontiguousarray(vec.T * sq)
    solver = StreamSolver(
        to_radial=to_radial,
        from_radial=vec / sq[:, None],
        inv_eig=1.0 / (eig_r[:, None] + eig_z),
        wall_modes=_dst(ends),
        # the ghost 2g - phi adds 2 flux g / V to the r_max row of L phi
        out_wall=to_radial[:, -1] * (2.0 * flux[-1] / vol[-1]),
        green=_wall_green(grid))
    kt._cache[grid] = solver
    return solver


def _stream_function(omega: ScalarField, kt: KernelTable):
    """phi = psi/r^2 of omega^theta in free space, with its wall values
    (g on z_min, g on z_max, each (n_r,); g on r_max, (n_z,))."""
    g = omega.grid
    s = _stream_solver(g, kt)
    n_r, dz = g.n_r, g.dz
    # zero wall data: L phi_0 = -q, spectrum w; only its wall trace is needed
    w = s.to_radial @ _dst(-omega.values / g.r[:, None])
    w *= s.inv_eig
    trace = np.concatenate([(s.from_radial @ (w @ s.wall_modes.T)).T.ravel(),
                            _dst(s.from_radial[-1] @ w, inverse=True)])
    wall = s.green @ trace
    g_lo, g_hi, g_out = wall[:n_r], wall[n_r:2 * n_r], wall[2 * n_r:]
    # with data g the ghosts 2g - phi add 2g/dz^2 (z walls) and
    # 2 r_max^3 g / (dr V) (r_max wall) to L phi; moved to the right-hand
    # side, they change the spectrum w by a rank-3 update
    src = np.empty((n_r, 3))
    src[:, :2] = s.to_radial @ np.stack([g_lo, g_hi], axis=1) * (2.0 / dz ** 2)
    src[:, 2] = s.out_wall
    modes = np.vstack([s.wall_modes, _dst(g_out.copy())])
    update = src @ modes
    update *= s.inv_eig
    w -= update
    phi = _dst(s.from_radial @ w, inverse=True)
    return phi, g_lo, g_hi, g_out


def velocity_from_vorticity(omega: ScalarField, kt: KernelTable) -> VelocityField:
    """Reconstruct (u^r, u^z) from omega^theta through the stream function."""
    if omega.role != "omega_theta":
        raise ValueError(f"expected role omega_theta, got {omega.role!r}")
    omega.check_finite()
    g = omega.grid
    phi, g_lo, g_hi, g_out = _stream_function(omega, kt)
    # centred differences; the wall ghosts are 2g - phi, the axis ghost phi
    ur = np.empty_like(phi)
    np.subtract(phi[:, :-2], phi[:, 2:], out=ur[:, 1:-1])
    ur[:, 0] = 2.0 * g_lo - phi[:, 0] - phi[:, 1]
    ur[:, -1] = phi[:, -1] + phi[:, -2] - 2.0 * g_hi
    ur *= g.r[:, None] / (2.0 * g.dz)
    uz = np.empty_like(phi)
    np.subtract(phi[2:], phi[:-2], out=uz[1:-1])
    uz[0] = phi[1] - phi[0]
    uz[-1] = 2.0 * g_out - phi[-1] - phi[-2]
    uz *= g.r[:, None] / (2.0 * g.dr)
    uz += 2.0 * phi
    return VelocityField(ScalarField(g, ur, "u_r"), ScalarField(g, uz, "u_z"))


def ur_over_r(u: VelocityField) -> ScalarField:
    """Pointwise u^r / r; well defined since all nodes are off-axis."""
    g = u.grid
    return ScalarField(g, u.u_r.values / g.r[:, None], "derived")
