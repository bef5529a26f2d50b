"""Lebesgue, Lorentz and mixed norms of grid fields.

Lorentz norms go through the decreasing rearrangement of |f| with respect to
the cylindrical measure.  The discrete rearrangement is a step function, so
every t-integral in the L^{p,q} definition is evaluated in closed form per
constancy interval; in particular L^{p,p} coincides with L^p up to rounding.
"""

from __future__ import annotations

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

    @property
    def total_measure(self) -> float:
        return float(self.cumulative[-1])


def rearrange(f: ScalarField) -> RearrangementProfile:
    """Decreasing rearrangement of |f| against the cylindrical cell measure."""
    vals = np.abs(f.values).ravel()
    # stable sort on the negated values: ties keep grid order
    order = np.argsort(-vals, kind="stable")
    v = vals[order]
    # the cells of an r-row share one measure; node k lies in row k // n_z
    m = row_measure(f.grid)[order // f.grid.n_z]
    return RearrangementProfile(v, m, np.cumsum(m))


def lebesgue_norm(f: ScalarField, p: float) -> float:
    if p < 1:
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
    v = prof.values
    n = np.count_nonzero(v)
    if n == 0:
        return 0.0
    v = v[:n]
    t_hi = prof.cumulative[:n]
    if q == INF:
        # sup of t^{1/p} f*(t) on each interval sits at the right endpoint
        return float(np.max(t_hi ** (1.0 / p) * v))
    # each interval contributes v^q * (p/q) * (t_hi^{q/p} - t_lo^{q/p}), and
    # t_lo is t_hi shifted by one with t_lo[0] = 0
    t_e = t_hi ** (q / p)
    contrib = v ** q * (p / q) * np.diff(t_e, prepend=0.0)
    return float(np.sum(contrib) ** (1.0 / q))


def mixed_norm(f: ScalarField, p_h: float, p_v: float) -> float:
    """Outer norm over r of the per-row L^{p_v} norm in z.

    The vertical measure is plain dz; the horizontal measure for finite p_h
    is the cylindrical weight 2*pi*r*dr.
    """
    if p_h < 1 or p_v < 1:
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
