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
symmetrised with V^(1/2), is eigendecomposed once per grid (numpy's dense
eigh of the tridiagonal); a solve is one DST-II, two n_r x n_r matmuls, one
divide and one inverse DST-II.  Each DST is one real FFT of length n_z
(J. Makhoul, IEEE Trans. ASSP 28 (1980) 27), with the grid's twiddles.

The free-space wall values come by the method of R. A. James (J. Comput.
Phys. 25 (1977) 71) and K. Lackner (Comput. Phys. Commun. 12 (1976) 33):
solve once with g = 0; the outward normal derivative at a wall face is
-2 phi_0 / h, and Green's identity gives

    g(x_b) = -sum_b' G_phi(x_b, x_b') d_n phi_0(x_b') r'^3 dS',
    G_phi = G_psi / (r^2 r'^2),
    G_psi = (sqrt(r r') / 2pi) [(2/k - k) K(k) - (2/k) E(k)],
    k^2 = 4 r r' / ((r + r')^2 + (z - z')^2),

with the self element replaced by its panel mean (r/2pi)(ln(16 r/h) - 1).
K and E come together from one arithmetic-geometric mean, in a form free of
the cancellation in the bracket (`_green_psi`).  The wall pairs take
n_r^2 + n_r n_z + n_z - 1 distinct G_psi(r, r', |z - z'|); the symmetric
matrix of G_psi is built once per grid, and the weights r' 2 dS'/h of the
trace and 1/r^2 of the result are applied in each solve.
The second solve, with g, differs from the first only by wall terms, a
rank-3 update of the first solve's radial spectrum.  Centred differences,
with the even axis ghost and the wall ghosts, then give the velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import GridSpec, ScalarField, VelocityField


@dataclass
class KernelTable:
    """Per-grid cache of stream-function solvers; `n_theta` is read by
    nothing and stays because the acceptance gates and the benchmark pass it."""

    n_theta: int = 64
    _cache: dict = field(init=False, default_factory=dict)


class StreamSolver(NamedTuple):
    """The per-grid arrays of the phi solve (all float64)."""

    to_radial: np.ndarray     # (n_r, n_r): Q^T V^(1/2), r -> radial eigenbasis
    from_radial: np.ndarray   # (n_r, n_r): V^(-1/2) Q, back to r
    inv_eig: np.ndarray       # (n_r, n_z): 1 / (radial + vertical eigenvalue)
    twiddles: np.ndarray      # (2, n_z//2 + 1) complex as float64: _dst's, forward and inverse
    wall_modes: np.ndarray    # (2, n_z): DST-II of the unit vectors at j = 0, n_z-1
    out_wall: np.ndarray      # (n_r,): to_radial of the r_max wall source per unit g
    green: np.ndarray         # (N_b, N_b): symmetric G_psi between the wall panels
    wall_weights: np.ndarray  # (2, N_b): r' 2 dS'/h on the trace, 1/r^2 on the result


# values per block in _dst (whole rows) and in _green_psi's AGM: their
# temporaries, 96 KiB real and about as much complex, stay below glibc
# malloc's default 128 KiB mmap threshold, so they are reused from the heap
# instead of mapped and faulted in on each call
_BLOCK = 12288


def _twiddles(n: int) -> np.ndarray:
    """_dst's twiddles for length n, e^(-i pi k/2n) for k = 0..n//2 with the
    orthonormal scale folded in, and their inverses, as float64 pairs."""
    tw = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1)) * math.sqrt(2.0 / n)
    tw[0] /= math.sqrt(2.0)
    return np.stack([tw, 1.0 / tw]).view(np.float64)


def _dst(x, twiddles, inverse=False):
    """Orthonormal DST-II (or its inverse) along the last axis of x, in
    place; every caller passes a temporary.

    Each row is one real FFT of length n.  With the even samples first and
    the odd ones after them, reversed and negated, the FFT times the twiddle
    e^(-i pi k/2n) holds coefficient n-1-k in its real part and coefficient
    k-1 in minus its imaginary part (Makhoul's reordering of the DCT-II,
    applied to the DST-II as the DCT-II of (-1)^j x_j read backwards).  The
    rows go in blocks of about _BLOCK values, so that the temporaries,
    and with them the solve's heap, stay block-sized.
    """
    n = x.shape[-1]
    rows = x.view()
    rows.shape = (-1, n)             # raises rather than copy
    h = (n + 1) // 2
    tw = twiddles.view(np.complex128)[1 if inverse else 0]
    step = max(1, _BLOCK // n)
    for a in range(0, len(rows), step):
        y = rows[a:a + step]
        if inverse:
            w = np.empty((len(y), n // 2 + 1), np.complex128)
            # for even n the last bin's real part is minus its imaginary part
            w.real = y[:, ::-1][:, :n // 2 + 1]
            w.imag[:, 0] = 0.0
            np.negative(y[:, :n // 2], out=w.imag[:, 1:])
            w *= tw
            v = np.fft.irfft(w, n)
            y[:, ::2] = v[:, :h]
            np.negative(v[:, h:][:, ::-1], out=y[:, 1::2])
        else:
            v = np.empty(y.shape)
            v[:, :h] = y[:, ::2]
            np.negative(y[:, 1::2][:, ::-1], out=v[:, h:])
            w = np.fft.rfft(v)
            w *= tw
            np.negative(w.imag[:, 1:], out=y[:, :n // 2])
            y[:, n // 2:] = w.real[:, h - 1::-1]
    return x


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
    """Free-space Stokes stream function at (r, z) of a unit ring at (rs, zs).

    With the arithmetic-geometric mean of 1 and b_0 = sqrt(1 - m)
    (Abramowitz & Stegun 17.6), K = pi / (2 a_N) and
    E = K (1 - m/2 - S), S = sum_{n>=1} 2^(n-1) c_n^2, the bracket
    (2/k - k) K - (2/k) E is 2 K S / k, so that

        G_psi = sqrt(r rs) S / (2 k a_N) = d S / (4 a_N),
        d^2 = (r + rs)^2 + (z - zs)^2 = 4 r rs / m,

    with a_1 = (1 + b_0)/2, b_1 = sqrt(b_0), c_1 = m / (4 a_1),
    c_{n+1} = c_n^2 / (4 a_{n+1}) and b_0^2 = 1 - m formed as
    m_1 = ((r - rs)^2 + (z - zs)^2) / d^2: no difference of nearly equal
    terms, even beside the singular panel.  The AGM runs in blocks of _BLOCK
    values, each until its term 2^(n-1) c_n^2 at the block's largest m (the
    slowest to converge) falls below 2^-53 of the sum there, so that far
    pairs stop early and the temporaries stay small.
    """
    d2 = (r + rs) ** 2 + (z - zs) ** 2
    m = 4.0 * r * rs / d2
    m1 = ((r - rs) ** 2 + (z - zs) ** 2) / d2
    out = np.empty_like(m)
    for blk in range(0, m.size, _BLOCK):
        c = m.reshape(-1)[blk:blk + _BLOCK]
        total = out.reshape(-1)[blk:blk + _BLOCK]
        k = int(np.argmax(c))
        b = np.sqrt(m1.reshape(-1)[blk:blk + _BLOCK])
        a = 1.0 + b
        a *= 0.5
        c /= a
        c *= 0.25
        np.sqrt(b, out=b)
        total[:] = t = c * c
        n = 1
        while t[k] > 2.0 ** -53 * total[k]:
            np.multiply(a, b, out=t)
            a += b
            a *= 0.5
            np.sqrt(t, out=b)
            c *= c
            c /= a
            c *= 0.25
            np.multiply(c, c, out=t)
            t *= 2.0 ** n
            total += t
            n += 1
        np.sqrt(d2.reshape(-1)[blk:blk + _BLOCK], out=t)
        total *= t
        a *= 4.0
        total /= a
    return out


def _wall_green(grid: GridSpec, rb: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """G_psi between the wall panels of _walls, symmetric; each distinct value
    is evaluated once (z walls by symmetry, z_max to r_max by mirror, r_max
    rows by transpose, r_max to itself Toeplitz), the self elements last."""
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
    # Toeplitz: the r_max pair (j, j') takes the value at |j - j'|
    col = np.append(0.0, _green_psi(r_max, z[0], r_max, z[1:]))
    j = np.arange(len(z))
    green[out, out] = col[np.abs(j[:, None] - j)]
    np.fill_diagonal(green, (rb / (2.0 * np.pi)) * (np.log(16.0 * rb / ds) - 1.0))
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
    # eigh reads the lower triangle: the diagonal and the subdiagonal
    sym = np.zeros((n_r, n_r))
    sym.flat[::n_r + 1] = diag / vol
    sym.flat[n_r::n_r + 1] = flux[1:-1] / (sq[:-1] * sq[1:])
    eig_r, vec = np.linalg.eigh(sym)
    eig_z = -(4.0 / dz ** 2) * np.sin(np.pi * np.arange(1, n_z + 1) / (2 * n_z)) ** 2
    ends = np.zeros((2, n_z))
    ends[0, 0] = ends[1, -1] = 1.0
    to_radial = np.ascontiguousarray(vec.T * sq)
    twiddles = _twiddles(n_z)
    rb, _, ds, h = _walls(grid)
    solver = StreamSolver(
        to_radial=to_radial,
        from_radial=vec / sq[:, None],
        inv_eig=1.0 / (eig_r[:, None] + eig_z),
        twiddles=twiddles,
        wall_modes=_dst(ends, twiddles),
        # the ghost 2g - phi adds 2 flux g / V to the r_max row of L phi
        out_wall=to_radial[:, -1] * (2.0 * flux[-1] / vol[-1]),
        green=_wall_green(grid, rb, ds),
        # g = -sum G_phi d_n phi_0 r'^3 dS' = sum G_psi (r' / r^2) (2 phi_0 / h) dS'
        wall_weights=np.stack([rb * (2.0 * ds / h), 1.0 / rb ** 2]))
    kt._cache[grid] = solver
    return solver


def _stream_function(omega: ScalarField, kt: KernelTable):
    """phi = psi/r^2 of omega^theta in free space, with its wall values
    (g on z_min, g on z_max, each (n_r,); g on r_max, (n_z,))."""
    g = omega.grid
    s = _stream_solver(g, kt)
    n_r, dz = g.n_r, g.dz
    # zero wall data: L phi_0 = -q, spectrum w; only its wall trace is needed
    w = s.to_radial @ _dst(omega.values / -g.r[:, None], s.twiddles)
    w *= s.inv_eig
    trace = np.concatenate([(s.from_radial @ (w @ s.wall_modes.T)).T.ravel(),
                            _dst(s.from_radial[-1] @ w, s.twiddles, inverse=True)])
    trace *= s.wall_weights[0]
    wall = s.green @ trace
    wall *= s.wall_weights[1]
    g_lo, g_hi, g_out = wall[:n_r], wall[n_r:2 * n_r], wall[2 * n_r:]
    # with data g the ghosts 2g - phi add 2g/dz^2 (z walls) and
    # 2 r_max^3 g / (dr V) (r_max wall) to L phi; moved to the right-hand
    # side, they change the spectrum w by a rank-3 update
    src = np.empty((n_r, 3))
    src[:, :2] = s.to_radial @ np.stack([g_lo, g_hi], axis=1) * (2.0 / dz ** 2)
    src[:, 2] = s.out_wall
    modes = np.vstack([s.wall_modes, _dst(g_out.copy(), s.twiddles)])
    update = src @ modes
    update *= s.inv_eig
    w -= update
    phi = _dst(s.from_radial @ w, s.twiddles, inverse=True)
    return phi, g_lo, g_hi, g_out


def velocity_from_vorticity(omega: ScalarField, kt: KernelTable) -> VelocityField:
    """Reconstruct (u^r, u^z) from omega^theta through the stream function."""
    if omega.role != "omega_theta":
        raise ValueError(f"expected role omega_theta, got {omega.role!r}")
    if not np.all(np.isfinite(omega.values)):
        raise ValueError("field contains non-finite values")
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
