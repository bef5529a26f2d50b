"""Lebesgue, Lorentz and mixed norms of grid fields.

Lorentz norms go through the decreasing rearrangement of |f| with respect to
the cylindrical measure.  The discrete rearrangement is a step function, so
every t-integral in the L^{p,q} definition is evaluated in closed form per
constancy interval; in particular L^{p,p} coincides with L^p up to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, cylindrical_integral, row_measure

INF = math.inf


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

    @functools.cached_property
    def n_positive(self) -> int:
        """Length of the positive prefix of values: the count of nonzero
        entries, counted once and shared by every norm of the profile."""
        return int(np.count_nonzero(self.values))


def rearrange(f: ScalarField) -> RearrangementProfile:
    """Decreasing rearrangement of |f| against the cylindrical cell measure.

    Two plain sorts, read backwards: one of |f| gives the values exactly, and
    one of keys, |f| with its k = (n_r - 1).bit_length() low bits replaced by
    2^k - 1 - row, pairs each with the row of a node whose |f| has the same
    high bits, as both sort by the high bits first.  So the profile is that
    of a field within a relative 2^(k-52) of |f| wherever |f| is a normal
    double, and each Lorentz norm (homogeneous, monotone) is within that of
    the exact one, plus rounding: 2.8e-14 at 96 rows, 2.3e-13 at 768.

    A non-finite |f| raises ValueError: its keys can be NaN, which the sort
    writes back without their row bits.
    """
    g = f.grid
    v = np.abs(f.values).reshape(-1)
    low = np.uint64((1 << (g.n_r - 1).bit_length()) - 1)
    keys = v.view(np.uint64).reshape(g.n_r, g.n_z) & ~low
    keys |= low - np.arange(g.n_r, dtype=np.uint64)[:, None]
    keys = keys.reshape(-1)
    v.sort()
    # NaN sorts last, so v[-1] is finite only if every value is
    if not math.isfinite(v[-1]):
        raise ValueError("field is not finite")
    keys.view(np.float64).sort()
    rows = low - (keys[::-1] & low)
    m = row_measure(g)[rows.view(np.int64)]
    # contiguous: numpy's power can round a strided view's last bit otherwise
    return RearrangementProfile(v[::-1].copy(), m, np.cumsum(m))


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
