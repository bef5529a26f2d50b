"""Lebesgue, Lorentz and mixed norms of grid fields.

Lorentz norms go through the decreasing rearrangement of |f| with respect to
the cylindrical measure.  The discrete rearrangement is a step function, so
every t-integral in the L^{p,q} definition is evaluated in closed form per
constancy interval; in particular L^{p,p} coincides with L^p up to rounding.

The rearrangement is defined as the stable sort of |f| in decreasing order
(ties keep grid order).  `rearrange` builds it from two plain sorts of
doubles instead of a stable argsort, and falls back to the stable argsort in the
rare case where the plain sorts cannot be shown to give the same profile bit
for bit (see its docstring).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, cylindrical_integral, row_measure

INF = math.inf

# bit pattern of +inf: |f| has these bits or more exactly where it is inf or NaN
_INF_BITS = np.float64(INF).view(np.uint64)


@dataclass(frozen=True)
class LorentzIndex:
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 1 or (self.p == 1 and self.q == 1)):
            raise ValueError(f"invalid Lorentz index p={self.p}")
        if not (1 <= self.q <= INF):
            raise ValueError(f"invalid Lorentz index q={self.q}")
        if self.p == INF and self.q != INF:
            raise ValueError("L^{inf,q} with finite q is not supported")


@dataclass
class RearrangementProfile:
    """Step representation of f*: value values[k] on (cumulative[k-1], cumulative[k]]."""

    values: np.ndarray      # non-increasing
    measures: np.ndarray    # positive cell measures, same order
    cumulative: np.ndarray  # prefix sums of measures

    @property
    def total_measure(self) -> float:
        return float(self.cumulative[-1])

    @functools.cached_property
    def n_positive(self) -> int:
        """Length of the positive prefix of values: the count of nonzero
        entries, counted once and shared by every norm of the profile."""
        return int(np.count_nonzero(self.values))


def rearrange(f: ScalarField) -> RearrangementProfile:
    """Decreasing rearrangement of |f| against the cylindrical cell measure.

    The profile is that of the stable sort of |f| in decreasing order, ties in
    grid order (`_rearrange_stable`).  It is built from two plain sorts, both
    read backwards:

    - Non-negative doubles sort as their uint64 bit patterns do, so one plain
      sort of |f| gives the values, exactly, in increasing order.
    - The measures need only the row of each sorted node.  With
      k = (n_r - 1).bit_length() low bits of |f| replaced by low - row, where
      low = 2^k - 1, a plain sort of these keys, as doubles, orders the nodes
      by the high bits of |f|, then by decreasing row; backwards, by
      decreasing high bits, then by row.

    Both orders list the nodes in the same runs of equal high bits, in the
    same order, so they agree on the row sequence wherever a run holds one
    distinct value (exact ties: the stable order takes them in grid order,
    which is row order) or one distinct row (the z-mirror near-ties of a
    symmetric field).  A run that holds two distinct values and two distinct
    rows may differ, and so may a non-finite |f|; both are detected, and the
    profile then comes from the stable argsort.
    """
    g = f.grid
    v = np.abs(f.values).reshape(-1)
    bits = v.view(np.uint64)
    low = np.uint64((1 << (g.n_r - 1).bit_length()) - 1)
    keys = bits.reshape(g.n_r, g.n_z) & ~low
    keys |= low - np.arange(g.n_r, dtype=np.uint64)[:, None]
    keys = keys.reshape(-1)
    v.sort()
    keys.view(np.float64).sort()
    # NaN sorts last, so bits[-1] is the largest bit pattern of |f|; the runs
    # and the changes inside them are the same read either way
    if bits[-1] >= _INF_BITS or _mixed_run(bits, keys, low):
        return _rearrange_stable(f)
    rows = low - (keys[::-1] & low)
    m = row_measure(g)[rows.view(np.int64)]
    # contiguous, so that the norms' sums add in the order the stable sort's do
    return RearrangementProfile(v[::-1].copy(), m, np.cumsum(m))


def _mixed_run(c: np.ndarray, keys: np.ndarray, low: np.uint64) -> bool:
    """Whether some run of equal high bits holds two distinct values (a
    change inside the run in the sorted c) and two distinct rows (a change
    inside the run in the sorted keys)."""
    # runs with two rows are rare (exact ties across rows), so test them first
    rowed = _changing_runs(keys, low)
    return rowed.size > 0 and bool(np.isin(rowed, _changing_runs(c, low)).any())


def _changing_runs(s: np.ndarray, low: np.uint64) -> np.ndarray:
    """The high bits of the sorted s at each change inside a run of equal
    high bits, in sorted order."""
    # neighbours differ in the low bits only where 0 < xor <= low, that is
    # where xor - 1 (wrapping 0 to the top) is below low
    x = s[1:] ^ s[:-1]
    x -= np.uint64(1)
    return s[np.flatnonzero(x < low)] & ~low


def _rearrange_stable(f: ScalarField) -> RearrangementProfile:
    """The defining rearrangement: a stable argsort of -|f|."""
    vals = np.abs(f.values).ravel()
    # stable sort on the negated values: ties keep grid order
    order = np.argsort(-vals, kind="stable")
    v = vals[order]
    # the cells of an r-row share one measure; node k lies in row k // n_z
    m = row_measure(f.grid)[order // f.grid.n_z]
    return RearrangementProfile(v, m, np.cumsum(m))


def lebesgue_norm(f: ScalarField, p: float) -> float:
    if not p >= 1:
        raise ValueError(f"need p >= 1, got {p}")
    a = np.abs(f.values)
    if p == INF:
        return float(a.max())
    return cylindrical_integral(ScalarField(f.grid, a ** p)) ** (1.0 / p)


def lorentz_norm(f: ScalarField | RearrangementProfile, idx) -> float:
    """L^{p,q} norm via closed-form integration of the step rearrangement.

    Pass rearrange(f) instead of f to share one sort between several norms.
    """
    if not isinstance(idx, LorentzIndex):
        idx = LorentzIndex(*idx)
    p, q = idx.p, idx.q
    if p == INF:
        return lebesgue_norm(f, INF) if isinstance(f, ScalarField) else float(f.values[0])
    prof = rearrange(f) if isinstance(f, ScalarField) else f
    # v = |f|* is non-negative and non-increasing: its nonzero entries are a
    # positive prefix
    n = prof.n_positive
    if n == 0:
        return 0.0
    v = prof.values[:n]
    t_hi = prof.cumulative[:n]
    if q == INF:
        # sup of t^{1/p} f*(t) on each interval sits at the right endpoint
        return float(np.max(t_hi ** (1.0 / p) * v))
    # each interval contributes v^q * (p/q) * (t_hi^{q/p} - t_lo^{q/p}), and
    # t_lo is t_hi shifted by one with t_lo[0] = 0; built in one buffer
    t_e = t_hi ** (q / p)
    w = v ** q
    w *= p / q
    w[0] *= t_e[0]
    w[1:] *= t_e[1:] - t_e[:-1]
    return float(np.sum(w) ** (1.0 / q))


def mixed_norm(f: ScalarField, p_h: float, p_v: float) -> float:
    """Outer norm over r of the per-row L^{p_v} norm in z.

    The vertical measure is plain dz; the horizontal measure for finite p_h
    is the cylindrical weight 2*pi*r*dr.
    """
    if not (p_h >= 1 and p_v >= 1):
        raise ValueError(f"need exponents >= 1, got ({p_h}, {p_v})")
    g = f.grid
    a = np.abs(f.values)
    if p_v == INF:
        inner = a.max(axis=1)
    else:
        inner = (np.sum(a ** p_v, axis=1) * g.dz) ** (1.0 / p_v)
    if p_h == INF:
        return float(inner.max())
    w = 2.0 * np.pi * g.r * g.dr
    return float(np.sum(inner ** p_h * w) ** (1.0 / p_h))
