"""Gap and band labeling equations, edge recovery, central gap index."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree.diophantine import (
    band_cherns,
    center_gap_index,
    central_gap,
    gap_labels,
    gap_rows,
    hierarchy_gap_cherns,
    recover_edges,
)
from butterfly_tree.errors import InconsistentChernPair, NotCoprime
from butterfly_tree.farey import is_friendly
from butterfly_tree.generators import ButterflyState
from butterfly_tree.tree import ExpansionLimits, expand
from oracles import gap_label_oracle


def test_gap_labels_reference_sequences():
    assert [g.sigma for g in gap_labels(1, 3)] == [1, -1]
    assert [g.sigma for g in gap_labels(2, 5)] == [-2, 1, -1, 2]
    assert [g.sigma for g in gap_labels(1, 2)] == [1]


def test_gap_labels_solve_the_equation():
    for p, q in ((1, 3), (2, 5), (3, 7), (5, 12)):
        for g in gap_labels(p, q):
            assert p * g.sigma + q * g.tau == g.r
            assert -q < 2 * g.sigma <= q


def test_gap_labels_require_coprime():
    with pytest.raises(NotCoprime):
        gap_labels(2, 4)


def test_band_cherns_reference_sequences():
    assert [b.chern for b in band_cherns(1, 3)] == [1, -2, 1]
    assert [b.chern for b in band_cherns(1, 2)] == [1, -1]
    assert [b.chern for b in band_cherns(2, 5)] == [-2, 3, -2, 3, -2]


def test_band_cherns_satisfy_band_equation():
    for p, q in ((1, 2), (1, 3), (2, 5), (4, 9), (7, 11)):
        bands = band_cherns(p, q)
        assert len(bands) == q
        assert [b.index for b in bands] == list(range(1, q + 1))
        for b in bands:
            assert p * b.chern + q * b.m == 1
        assert sum(b.chern for b in bands) == 0


def test_oracle_agrees_on_small_fluxes():
    for q in range(2, 16):
        for p in range(1, q + 1):
            if gcd(p, q) != 1:
                continue
            for g in gap_labels(p, q):
                assert gap_label_oracle(p, q, g.r) == [(g.sigma, g.tau)]


def test_recover_edges_reference_values():
    assert recover_edges(1, 1) == (0, 1)
    assert recover_edges(2, 3) == (1, 1)
    assert recover_edges(5, 3) == (1, 2)


def test_recover_edges_requires_coprime():
    with pytest.raises(NotCoprime):
        recover_edges(6, 9)


@given(st.integers(1, 60), st.integers(1, 60))
def test_recover_edges_always_friendly_and_ordered(q_r, q_l):
    if gcd(q_r, q_l) != 1:
        return
    p_l, p_r = recover_edges(q_r, q_l)
    left, right = Fraction(p_l, q_l), Fraction(p_r, q_r)
    assert 0 <= left < right <= 1
    assert is_friendly(left, right)
    assert p_l * q_r - p_r * q_l == -1


def test_hierarchy_reference_values():
    assert hierarchy_gap_cherns(-1, 3, 1) == 2
    assert hierarchy_gap_cherns(-1, 2, -1) == -3
    assert hierarchy_gap_cherns(0, 5, 0) == 0
    assert [hierarchy_gap_cherns(-1, 3, n) for n in range(3)] == [-1, 2, 5]
    with pytest.raises(NotCoprime, match="^denominator must be positive, got 0$"):
        hierarchy_gap_cherns(1, 0, 2)


def test_center_gap_index_reference_values():
    main = ButterflyState(Fraction(0), Fraction(1), 1, 1)
    assert center_gap_index(main) == (1, Fraction(1, 2))

    infant = ButterflyState(Fraction(1, 3), Fraction(1, 2), 2, 3)
    assert center_gap_index(infant) == (4, Fraction(4, 5))

    upper = ButterflyState(Fraction(2, 3), Fraction(1), 2, 2)
    assert center_gap_index(upper) == (2, Fraction(1, 2))


def test_center_gap_index_checks_both_congruences():
    # A slope pair that does not split q_c breaks the plus/minus agreement.
    bad = ButterflyState(Fraction(0), Fraction(1), 2, 1)
    with pytest.raises(InconsistentChernPair):
        center_gap_index(bad)


def test_central_gap_reduces_the_centre_it_is_given():
    for node in expand(ExpansionLimits(4, 2)):
        q_r, q_l, s_p, s_m, p_r, p_l = node.core
        center = node.state.center
        r_c = (s_p * center.numerator) % center.denominator
        assert central_gap(s_p, s_m, p_l + p_r, q_l + q_r) == (
            center.numerator, center.denominator, r_c)
    # The tampered edges 2/5 and 2/3 of tests/test_skeleton.py: their
    # mediant sums 4/8 give what the reduced 1/2 gives, error text included.
    assert central_gap(1, 1, 4, 8) == central_gap(1, 1, 1, 2) == (1, 2, 1)
    for p_c, q_c in ((4, 8), (1, 2)):
        with pytest.raises(InconsistentChernPair, match="^slopes \\+2/-1 give gaps "
                                                        "0 != 1 at flux 1/2$"):
            central_gap(2, 1, p_c, q_c)


def test_gap_rows_equal_the_brute_force_oracle():
    """Every coprime p/q with q <= 40, p in [-q, 2q]: one row per gap, each
    the unique oracle solution in the sigma window."""
    for q in range(1, 41):
        for p in range(-q, 2 * q + 1):
            if gcd(p, q) != 1:
                continue
            rows = list(gap_rows(p, q))
            assert [r for r, _, _ in rows] == list(range(1, q))
            for r, sigma, tau in rows:
                assert gap_label_oracle(p, q, r) == [(sigma, tau)], (p, q, r)


def test_gap_labels_are_the_rows():
    for p, q in ((1, 2), (2, 5), (7, 12), (-3, 10)):
        assert [(g.r, g.sigma, g.tau) for g in gap_labels(p, q)] == list(gap_rows(p, q))


def test_gap_rows_require_coprime_on_the_call():
    """Negative control: the check fires before any row is asked for."""
    with pytest.raises(NotCoprime, match="2/4 is not reduced"):
        gap_rows(2, 4)
    with pytest.raises(NotCoprime, match="denominator must be positive"):
        gap_rows(1, 0)


def _harper_gaps(numpy, p, q, wrap=-1):
    """Width of each gap r = 1..q-1 (index r - 1) of the Harper model at flux p/q.

    The q x q matrix has diagonal 2cos(2 pi p n / q + phi), hopping 1 to
    n +/- 1 and wrap-around entries w; at q = 2 both hoppings land on one
    entry, 1 + w.  Its eigenvalues at (phi, w) = (0, +1) and (pi/q, -1) are
    the band edges, Chambers' P(E) = +/-4: band j spans the min and max of
    the two j-th eigenvalues, and gap r lies between bands r and r + 1.  A
    negative width is an overlap, zero a touching.
    """
    n = numpy.arange(q)
    edges = []
    for phi, w in ((0.0, 1.0), (numpy.pi / q, wrap)):
        h = numpy.diag(2 * numpy.cos(2 * numpy.pi * p * n / q + phi))
        h += numpy.eye(q, k=1) + numpy.eye(q, k=-1)
        h[0, q - 1] += w
        h[q - 1, 0] += w
        edges.append(numpy.linalg.eigvalsh(h))
    low, high = numpy.minimum(*edges), numpy.maximum(*edges)
    return low[1:] - high[:-1]


def test_the_central_gap_is_open_in_the_harper_spectrum_exactly_when_the_slopes_differ():
    """Gap r_c of `central_gap` at each d4/c2 node's centre flux (481 fluxes,
    q_c <= 89), in the spectrum of the Harper model: open on the 2 316 nodes
    with sigma_+ != sigma_-, the narrowest 1.02e-4 wide, and the E = 0
    touching, |width| <= 1.6e-14, on the 79 with sigma_+ = sigma_-.  The
    thresholds, open past 1e-6 and touching under 1e-9, leave margins of
    about 100 and 6e4.  With the wrong wrap sign at phi = pi/q, 41 of those
    touchings read open: the sign matters."""
    numpy = pytest.importorskip("numpy")
    gaps, opened, touching, wrong = {}, [], [], 0
    for node in expand(ExpansionLimits(4, 2)):
        q_r, q_l, s_p, s_m, p_r, p_l = node.core
        p_c, q_c, r_c = central_gap(s_p, s_m, p_l + p_r, q_l + q_r)
        if (p_c, q_c) not in gaps:
            gaps[p_c, q_c] = _harper_gaps(numpy, p_c, q_c)
        width = gaps[p_c, q_c][r_c - 1]
        if s_p != s_m:
            opened.append(width)
        else:
            touching.append(abs(width))
            wrong += _harper_gaps(numpy, p_c, q_c, wrap=1)[r_c - 1] > 1e-6
    assert (len(gaps), max(q for _, q in gaps)) == (481, 89)
    assert (len(opened), len(touching)) == (2_316, 79)
    assert min(opened) > 1e-6 and max(touching) < 1e-9
    assert 1.01e-4 < min(opened) < 1.03e-4
    assert wrong == 41
