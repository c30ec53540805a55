"""Exact Farey arithmetic on reduced fractions in [0, 1].

Fractions are stdlib `fractions.Fraction` values: always reduced, positive
denominator, arbitrary precision.  Two fractions p_L/q_L < p_R/q_R are
"friendly" (Farey neighbours) when p_L*q_R - p_R*q_L = -1; every butterfly
in the hierarchy is bounded by a friendly pair and centred on its mediant.
Both records are named tuples; `FriendlyTriplet` checks itself however it
is built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import DegenerateDifference, InvariantViolation

ZERO = Fraction(0)
ONE = Fraction(1)


def is_friendly(a: Fraction, b: Fraction) -> bool:
    """True when a and b are Farey neighbours in either order."""
    return abs(a.numerator * b.denominator - b.numerator * a.denominator) == 1


def mediant(a: Fraction, b: Fraction) -> Fraction:
    """Farey sum (p_a + p_b)/(q_a + q_b).

    For a friendly pair the result is automatically in lowest terms and is
    the unique fraction between them with minimal denominator.
    """
    return Fraction(a.numerator + b.numerator, a.denominator + b.denominator)


class FareyDifference(NamedTuple):
    """Result of the Farey difference (p_b - p_a)/(q_b - q_a).

    `value` is the normalised fraction.  `negated` records that the raw
    denominator q_b - q_a was negative, i.e. both signs were flipped during
    normalisation; callers that care about the raw orientation (tail side)
    can recover it from this flag.
    """

    value: Fraction
    negated: bool


def farey_difference(a: Fraction, b: Fraction) -> FareyDifference:
    """Accumulation point of the chain attached to the pair (a, b).

    Subtracts numerators and denominators separately.  Raises
    DegenerateDifference when the denominators are equal (the root pair
    0/1, 1/1 has no accumulation point, matching its missing tail).
    """
    den = b.denominator - a.denominator
    if den == 0:
        raise DegenerateDifference(f"equal denominators in {a}, {b}")
    num = b.numerator - a.numerator
    return FareyDifference(Fraction(num, den), negated=den < 0)


class FriendlyTriplet(namedtuple("FriendlyTriplet", "left center right")):
    """Farey triplet left < center < right bounding one butterfly.

    Invariants checked on construction: the outer pair is friendly with
    p_L*q_R - p_R*q_L = -1 (so left < right), and center is their mediant.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, left: Fraction, center: Fraction, right: Fraction) -> FriendlyTriplet:
        d = left.numerator * right.denominator - right.numerator * left.denominator
        if d != -1:
            raise InvariantViolation(f"outer pair {left}, {right} not friendly-ordered (det {d})")
        if center != mediant(left, right):
            raise InvariantViolation(f"center {center} is not the mediant of {left}, {right}")
        return super().__new__(cls, left, center, right)

    @classmethod
    def from_pair(cls, left: Fraction, right: Fraction) -> "FriendlyTriplet":
        return cls(left, mediant(left, right), right)

    @property
    def q_c(self) -> int:
        return self.center.denominator


def stern_brocot_friendly_triplets(q_max: int) -> Iterator[FriendlyTriplet]:
    """Every FriendlyTriplet inside [0, 1] with center denominator <= q_max.

    Enumerates by recursive mediant subdivision of (0/1, 1/1), left branch
    first, yielding each triplet exactly once.  Denominators only grow down
    the recursion, so pruning at q_max is exhaustive.
    """
    if q_max < 2:
        raise ValueError("q_max must be at least 2")
    stack = [(ZERO, ONE)]
    while stack:
        left, right = stack.pop()
        center = mediant(left, right)
        if center.denominator > q_max:
            continue
        yield FriendlyTriplet(left, center, right)
        stack.append((center, right))
        stack.append((left, center))
