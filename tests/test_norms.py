import math

import numpy as np
import pytest

from axivisc import norms
from axivisc.diagnostics import MONOTONE_LORENTZ
from axivisc.grid import ScalarField, cylindrical_integral, make_grid
from axivisc.norms import (INF, LorentzIndex, lebesgue_norm, lorentz_norm,
                           mixed_norm, rearrange)


@pytest.fixture
def grid16():
    return make_grid(1.0, -1.0, 1.0, 16, 16)


def random_field(g, rng):
    return ScalarField(g, rng.normal(size=(g.n_r, g.n_z)))


class TestLorentzIndex:
    def test_valid(self):
        LorentzIndex(1.5, 1.0)
        LorentzIndex(INF, INF)
        LorentzIndex(1.0, 1.0)

    @pytest.mark.parametrize("p,q", [(0.5, 1), (1.0, 2.0), (INF, 1.0)])
    def test_invalid(self, p, q):
        with pytest.raises(ValueError):
            LorentzIndex(p, q)


class TestRearrange:
    def test_zero_field(self, grid16):
        prof = rearrange(ScalarField(grid16, np.zeros((16, 16))))
        assert np.all(prof.values == 0)
        assert prof.cumulative[-1] == pytest.approx(
            cylindrical_integral(ScalarField(grid16, np.ones((16, 16)))))

    def test_two_values_sorted(self):
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        vals = np.zeros((4, 4))
        vals[0, 0] = 1.0
        vals[3, 3] = -3.0
        prof = rearrange(ScalarField(g, vals))
        assert prof.values[0] == 3.0
        assert prof.values[1] == 1.0
        m = g.cell_measure()
        assert prof.cumulative[0] == pytest.approx(m[3, 3])
        assert prof.cumulative[1] == pytest.approx(m[3, 3] + m[0, 0])

    def test_measures_are_the_sorted_cells_measures(self):
        # gathered from the per-row vector, bit for bit the measure of each
        # sorted node; n_r != n_z, so a wrong row index shows
        g = make_grid(1.0, -1.0, 1.0, 6, 10)
        f = random_field(g, np.random.default_rng(5))
        order = np.argsort(-np.abs(f.values).ravel(), kind="stable")
        prof = rearrange(f)
        np.testing.assert_array_equal(prof.measures, g.cell_measure().ravel()[order])
        np.testing.assert_array_equal(prof.cumulative, np.cumsum(prof.measures))

    @pytest.mark.parametrize("n_r", [16, 17])
    @pytest.mark.parametrize("case,mispairs", [
        ("ties", False), ("zeros", False), ("all_zero", False),
        ("ulp_same_row", False), ("ulp_lower_row_larger", True),
        ("ulp_higher_row_larger", True), ("nan", True), ("inf", True)])
    @pytest.mark.parametrize("ulps", [1, 8])
    def test_equals_stable_argsort_bit_for_bit(self, n_r, case, mispairs, ulps):
        # the values bit for bit, the measures run by run; the norms within
        # rounding, and within the 2^(k-52) bound where a value may take
        # another node's row (near-ties across rows); non-finite |f| raises.
        # 16 rows fit the 4 low bits of the sort keys, 17 need 5
        g = make_grid(1.0, -1.0, 1.0, n_r, 12)
        f = adversarial_field(g, case, ulps)
        if case in ("nan", "inf"):
            with pytest.raises(ValueError, match="field is not finite"):
                rearrange(f)
            return
        prof = rearrange(f)
        stable = stable_profile(f)
        np.testing.assert_array_equal(prof.values, stable.values)
        np.testing.assert_array_equal(np.sort(prof.measures),
                                      np.sort(g.cell_measure().ravel()))
        np.testing.assert_array_equal(prof.cumulative, np.cumsum(prof.measures))
        # each run of equal high bits holds the measures of its own nodes
        k = (n_r - 1).bit_length()
        high = stable.values.view(np.uint64) >> np.uint64(k)
        np.testing.assert_array_equal(
            *(p.measures[np.lexsort((p.measures, high))] for p in (prof, stable)))
        bound = (2.0 ** (k - 52) if mispairs else 0.0) + rounding_allowance(g)
        for idx in MONOTONE_LORENTZ:
            assert lorentz_norm(prof, idx) == pytest.approx(
                lorentz_norm(stable, idx), rel=bound, abs=0.0)

    @pytest.mark.parametrize("case", ["ties", "zeros", "ulp_lower_row_larger",
                                      "ring"])
    def test_row_permutation_changes_no_norm(self, case):
        # the nodes of an r-row share one measure, so the order of ties, and
        # any permutation inside a row, leaves f* and its norms alone
        g = make_grid(1.0, -1.0, 1.0, 17, 12)
        if case == "ring":
            f = ScalarField(g, np.exp(-((g.r[:, None] - 0.5) ** 2
                                        + g.z[None, :] ** 2) / 0.15 ** 2))
        else:
            f = adversarial_field(g, case, 8)
        h = ScalarField(g, np.random.default_rng(3).permuted(f.values, axis=1))
        for idx in MONOTONE_LORENTZ + ((3.0, 1.0),):
            assert lorentz_norm(h, idx) == pytest.approx(
                lorentz_norm(f, idx), rel=rounding_allowance(g), abs=0.0)

    @pytest.mark.parametrize("phi", [lambda t: t, lambda t: t ** 2,
                                     lambda t: t ** 1.5])
    def test_equimeasurability(self, grid16, phi):
        rng = np.random.default_rng(11)
        f = random_field(grid16, rng)
        prof = rearrange(f)
        via_profile = float(np.sum(phi(prof.values) * prof.measures))
        direct = cylindrical_integral(ScalarField(grid16, phi(np.abs(f.values))))
        assert via_profile == pytest.approx(direct, rel=1e-12)


def stable_profile(f):
    """The rearrangement as its definition reads: a stable argsort of -|f|."""
    vals = np.abs(f.values).ravel()
    order = np.argsort(-vals, kind="stable")
    m = f.grid.cell_measure().ravel()[order]
    return norms.RearrangementProfile(vals[order], m, np.cumsum(m))


def rounding_allowance(g):
    """Relative distance within which two computed Lorentz norms of one f*
    agree, whatever the order in which the profile takes tied nodes.

    With n nodes, u = 2^-53 and q/p <= 1 (every index tested): the prefix
    sums t_i of the measures are recursive sums, within gamma_n ~ n u; each
    T_i = t_i^(q/p) adds 2u (a pow within one ulp).  By summation by parts,
    sum v_i^q (T_i - T_(i-1)) = sum T_i (v_i^q - v_(i+1)^q) with non-negative
    weights, so the sum carries that relative error unamplified; each term's
    pow, differences and products add 6u, and the final sum of n positive
    terms gamma_n.  Taking the 1/q power (q >= 1) adds 2u: each norm lies
    within 2 n u + 10 u of the exact one, and two norms within twice that.
    """
    return (4 * g.n_r * g.n_z + 20) * 2.0 ** -53


def adversarial_field(g, case, ulps):
    """A field whose rearrangement tests the plain-sort shortcut."""
    rng = np.random.default_rng(g.n_r)
    shape = (g.n_r, g.n_z)
    if case == "ties":
        # exact ties within rows and across rows, the last row included
        return ScalarField(g, rng.integers(-3, 4, size=shape).astype(float))
    if case == "all_zero":
        return ScalarField(g, np.zeros(shape))
    vals = rng.uniform(0.5, 4.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    if case == "zeros":
        vals[rng.random(shape) < 0.5] = 0.0
    elif case == "nan":
        vals[g.n_r // 2, 3] = np.nan
    elif case == "inf":
        vals[1, 2] = -np.inf
        vals[g.n_r - 1, 0] = np.inf
    else:
        # 5.0 has its low mantissa bits clear, so 5.0 and 5.0 + ulps ulp lie
        # in one run of equal high bits of the sort keys
        x = np.float64(5.0)
        y = (x.view(np.uint64) + np.uint64(ulps)).view(np.float64)
        lo, hi = {"ulp_same_row": ((2, 3), (2, 7)),
                  "ulp_lower_row_larger": ((g.n_r - 1, 3), (2, 7)),
                  "ulp_higher_row_larger": ((2, 3), (g.n_r - 1, 7))}[case]
        vals[lo], vals[hi] = x, -y
    return ScalarField(g, vals)


class TestLebesgueNorm:
    def test_constant_on_unit_measure(self):
        # r in [0, sqrt(1/pi)], z in [0,1] gives total measure 1
        g = make_grid(math.sqrt(1 / math.pi), 0.0, 1.0, 8, 8)
        f = ScalarField(g, np.ones((8, 8)))
        for p in (1.0, 1.5, 2.0, 7.0):
            assert lebesgue_norm(f, p) == pytest.approx(1.0, rel=1e-12)

    def test_infinity_is_max(self, grid16):
        rng = np.random.default_rng(2)
        f = random_field(grid16, rng)
        assert lebesgue_norm(f, INF) == np.abs(f.values).max()

    def test_scaling(self, grid16):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_field(grid16, rng)
            c = float(rng.normal())
            cf = ScalarField(grid16, c * f.values)
            for p in (1.0, 1.5, 2.0):
                assert lebesgue_norm(cf, p) == pytest.approx(
                    abs(c) * lebesgue_norm(f, p), rel=1e-12)

    def test_rejects_small_p(self, grid16):
        f = ScalarField(grid16, np.ones((16, 16)))
        for p in (0.5, math.nan):
            with pytest.raises(ValueError):
                lebesgue_norm(f, p)


class TestLorentzNorm:
    @pytest.mark.parametrize("idx", [(1.5, 1.0), (3.0, 1.0), (1.2, 1.2),
                                     (2.0, INF), (INF, INF)])
    def test_precomputed_rearrangement_gives_same_value(self, grid16, idx):
        f = random_field(grid16, np.random.default_rng(6))
        assert lorentz_norm(rearrange(f), idx) == lorentz_norm(f, idx)

    def test_indicator_closed_form(self, grid16):
        rng = np.random.default_rng(4)
        mask = rng.random((16, 16)) < 0.3
        f = ScalarField(grid16, mask.astype(float))
        vol = cylindrical_integral(f)
        for p, q in ((1.5, 1.0), (3.0, 1.0), (2.0, 2.0)):
            expected = (p / q) ** (1 / q) * vol ** (1 / p)
            assert lorentz_norm(f, (p, q)) == pytest.approx(expected, rel=1e-12)

    def test_weak_norm_two_cells(self):
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        vals = np.zeros((4, 4))
        vals[1, 1] = 3.0
        vals[2, 2] = 1.0
        f = ScalarField(g, vals)
        m = g.cell_measure()
        p = 1.5
        expected = max(3.0 * m[1, 1] ** (1 / p),
                       1.0 * (m[1, 1] + m[2, 2]) ** (1 / p))
        assert lorentz_norm(f, (p, INF)) == pytest.approx(expected, rel=1e-13)

    def test_pp_matches_lebesgue(self, grid16):
        rng = np.random.default_rng(42)
        for _ in range(20):
            f = random_field(grid16, rng)
            for p in (6 / 5, 1.5, 2.0):
                assert lorentz_norm(f, (p, p)) == pytest.approx(
                    lebesgue_norm(f, p), rel=1e-10)

    def test_monotone_in_field(self, grid16):
        rng = np.random.default_rng(9)
        f = random_field(grid16, rng)
        g2 = ScalarField(grid16, f.values * rng.uniform(1.0, 2.0, f.values.shape))
        prof_f = rearrange(f)
        prof_g = rearrange(g2)
        # f* <= g* pointwise in t implies the norm ordering
        # profiles share cell measures, so compare on the merged grid
        for p, q in ((1.5, 1.0), (2.0, INF)):
            assert lorentz_norm(f, (p, q)) <= lorentz_norm(g2, (p, q)) + 1e-14
        ts = np.linspace(1e-6, prof_f.cumulative[-1], 50)
        fstar = _eval_star(prof_f, ts)
        gstar = _eval_star(prof_g, ts)
        assert np.all(fstar <= gstar + 1e-14)

    def test_q_nesting(self, grid16):
        # the (p,1) norm dominates the (p,inf) norm on every field
        rng = np.random.default_rng(21)
        for _ in range(20):
            f = random_field(grid16, rng)
            for p in (1.5, 2.0, 3.0):
                assert lorentz_norm(f, (p, 1.0)) >= lorentz_norm(f, (p, INF))

    def test_homogeneity_exact(self, grid16):
        rng = np.random.default_rng(13)
        f = random_field(grid16, rng)
        cf = ScalarField(grid16, 2.0 * f.values)  # power of two: exact scaling
        assert lorentz_norm(cf, (1.5, 1.0)) == 2.0 * lorentz_norm(f, (1.5, 1.0))

    def test_p_inf_q_finite_rejected(self, grid16):
        f = ScalarField(grid16, np.ones((16, 16)))
        with pytest.raises(ValueError):
            lorentz_norm(f, (INF, 2.0))

    def test_linf(self, grid16):
        rng = np.random.default_rng(17)
        f = random_field(grid16, rng)
        assert lorentz_norm(f, (INF, INF)) == np.abs(f.values).max()


def _eval_star(prof, ts):
    idx = np.searchsorted(prof.cumulative, ts, side="left")
    vals = np.concatenate([prof.values, [0.0]])
    return vals[np.clip(idx, 0, len(prof.values))]


class TestMixedNorm:
    def test_constant_sup_sup(self, grid16):
        f = ScalarField(grid16, np.ones((16, 16)))
        assert mixed_norm(f, INF, INF) == 1.0

    def test_separable(self, grid16):
        g = grid16
        gr = np.exp(-g.r)
        hz = np.cos(g.z)
        f = ScalarField(g, gr[:, None] * hz[None, :])
        p_h, p_v = 2.0, 3.0
        inner = (np.sum(np.abs(hz) ** p_v) * g.dz) ** (1 / p_v)
        outer = (np.sum(gr ** p_h * 2 * np.pi * g.r * g.dr)) ** (1 / p_h)
        assert mixed_norm(f, p_h, p_v) == pytest.approx(outer * inner, rel=1e-12)

    def test_not_a_lebesgue_norm_for_mismatched_exponents(self, grid16):
        rng = np.random.default_rng(3)
        f = random_field(grid16, rng)
        m = mixed_norm(f, 2.0, 3.0)
        assert m != pytest.approx(lebesgue_norm(f, 2.0), rel=1e-6)
        assert m != pytest.approx(lebesgue_norm(f, 3.0), rel=1e-6)

    def test_matches_lp_when_weights_align(self):
        # two-cell hand computation: with the inner measure dz and outer
        # 2 pi r dr, mixed(p,p)^p = sum |f|^p 2 pi r dr dz = (L^p)^p
        g = make_grid(1.0, 0.0, 1.0, 4, 4)
        vals = np.zeros((4, 4))
        vals[1, 2] = 2.0
        vals[3, 1] = 5.0
        f = ScalarField(g, vals)
        assert mixed_norm(f, 2.0, 2.0) == pytest.approx(
            lebesgue_norm(f, 2.0), rel=1e-12)

    def test_rejects_bad_exponents(self, grid16):
        f = ScalarField(grid16, np.ones((16, 16)))
        for p_h, p_v in ((0.5, 2.0), (math.nan, 2.0), (2.0, math.nan)):
            with pytest.raises(ValueError):
                mixed_norm(f, p_h, p_v)
