"""Farey/Stern-Brocot arithmetic: mediants, friendly pairs, triplet enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree.errors import DegenerateDifference, InvariantViolation
from butterfly_tree.farey import (
    FriendlyTriplet,
    farey_difference,
    is_friendly,
    mediant,
    stern_brocot_friendly_triplets,
)


def F(num, den=1):
    return Fraction(num, den)


def test_mediant_reference_values():
    assert mediant(F(0), F(1)) == F(1, 2)
    assert mediant(F(1, 3), F(1, 2)) == F(2, 5)
    assert mediant(F(1, 3), F(2, 5)) == F(3, 8)


def test_is_friendly_reference_values():
    assert is_friendly(F(0), F(1))
    assert is_friendly(F(1, 3), F(2, 5))
    assert not is_friendly(F(1, 3), F(3, 5))


def test_farey_difference_reference_values():
    assert farey_difference(F(0), F(1, 3)) == F(1, 2)
    # Equal numerators with decreasing denominator: both signs flip.
    assert farey_difference(F(1, 3), F(1, 2)) == F(0)
    assert farey_difference(F(1, 3), F(2, 5)) == F(1, 2)
    assert type(farey_difference(F(1, 3), F(1, 2))) is Fraction


def test_farey_difference_equal_denominators_rejected():
    with pytest.raises(DegenerateDifference):
        farey_difference(F(1, 3), F(2, 3))


def test_friendly_triplet_validates():
    t = FriendlyTriplet(F(1, 3), F(2, 5), F(1, 2))
    assert t.q_c == 5
    with pytest.raises(InvariantViolation):
        FriendlyTriplet(F(1, 2), F(2, 5), F(1, 3))  # reversed order
    with pytest.raises(InvariantViolation):
        FriendlyTriplet(F(1, 3), F(3, 8), F(1, 2))  # wrong center
    with pytest.raises(InvariantViolation):
        FriendlyTriplet(F(1, 3), F(7, 15), F(3, 5))  # not friendly


def test_friendly_triplet_from_pair():
    t = FriendlyTriplet.from_pair(F(0), F(1))
    assert (t.left, t.center, t.right) == (F(0), F(1, 2), F(1))


def test_enumeration_smallest_cases():
    with pytest.raises(ValueError, match="^q_max must be at least 2$"):
        list(stern_brocot_friendly_triplets(1))
    only = list(stern_brocot_friendly_triplets(2))
    assert len(only) == 1
    t = only[0]
    assert (t.left, t.center, t.right) == (F(0), F(1, 2), F(1))


def test_enumeration_q5_is_farey_sequence_five():
    trips = list(stern_brocot_friendly_triplets(5))
    # Every reduced fraction with denominator 2..5 appears exactly once as
    # a center, so the triplet count is phi(2)+phi(3)+phi(4)+phi(5) = 9 and
    # the distinct fractions form the 11-element fifth Farey sequence.
    assert len(trips) == 9
    fractions = set()
    for t in trips:
        fractions.update((t.left, t.center, t.right))
    assert len(fractions) == 11
    assert fractions == {F(0), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2),
                         F(3, 5), F(2, 3), F(3, 4), F(4, 5), F(1)}
    assert any((t.left, t.center, t.right) == (F(1, 3), F(2, 5), F(1, 2))
               for t in trips)


def test_enumeration_centers_unique_and_bounded():
    trips = list(stern_brocot_friendly_triplets(12))
    centers = [t.center for t in trips]
    assert len(centers) == len(set(centers))
    assert all(t.q_c <= 12 for t in trips)
    # phi(2) + ... + phi(12) centers in total
    assert len(trips) == sum(len([p for p in range(1, q) if F(p, q).denominator == q])
                             for q in range(2, 13))


@st.composite
def friendly_pairs(draw):
    """Random friendly pair from a random Stern-Brocot descent."""
    lo, hi = F(0), F(1)
    for step in draw(st.lists(st.booleans(), max_size=12)):
        mid = mediant(lo, hi)
        if step:
            lo = mid
        else:
            hi = mid
    return lo, hi


@given(friendly_pairs())
def test_mediant_is_friendly_with_both_parents(pair):
    a, b = pair
    m = mediant(a, b)
    assert is_friendly(a, b)
    assert is_friendly(a, m) and is_friendly(m, b)
    assert a < m < b


@given(friendly_pairs())
def test_friendly_width_is_inverse_product(pair):
    a, b = pair
    assert b - a == F(1, a.denominator * b.denominator)


@given(friendly_pairs())
def test_difference_normalization(pair):
    a, b = pair
    if a.denominator == b.denominator:
        with pytest.raises(DegenerateDifference):
            farey_difference(a, b)
        return
    d = farey_difference(a, b)
    assert d.denominator >= 1
    assert d == F(b.numerator - a.numerator, b.denominator - a.denominator)
