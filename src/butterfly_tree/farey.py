"""The Fraction views: Farey arithmetic, and the generators' states and labels.

Fractions are stdlib `fractions.Fraction` values: reduced, with a positive
denominator.  p_L/q_L < p_R/q_R are "friendly" (Farey neighbours) when
p_L*q_R - p_R*q_L = -1; every butterfly is bounded by a friendly pair,
centred on its mediant, and its tail converges to their Farey difference.

The one module of the package that loads `fractions` on import, it loads on
first touch of a view that `generators` re-exports (PEP 562).  `apply_state`
and `apply_label` are the checked views of `state_route` and `label_route`;
`FriendlyTriplet` and `ButterflyLabel` check themselves however they are built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple, Optional

from . import intmat
from .errors import DegenerateDifference, InvariantViolation
from .generators import (_FOUR, Core, GeneratorKind, _bad_step, _check_denominators,
                         _problems, label_route, state_route, tail_generator)


def is_friendly(a: Fraction, b: Fraction) -> bool:
    """True when a and b are Farey neighbours in either order."""
    return abs(a.numerator * b.denominator - b.numerator * a.denominator) == 1


def mediant(a: Fraction, b: Fraction) -> Fraction:
    """Farey sum (p_a + p_b)/(q_a + q_b).

    For a friendly pair the result is automatically in lowest terms and is
    the unique fraction between them with minimal denominator.
    """
    return Fraction(a.numerator + b.numerator, a.denominator + b.denominator)


def farey_difference(a: Fraction, b: Fraction) -> Fraction:
    """Accumulation point (p_b - p_a)/(q_b - q_a) of the chain on the pair (a, b).

    Raises DegenerateDifference when the denominators are equal: the root
    pair 0/1, 1/1 has no accumulation point, as it has no tail.
    """
    den = b.denominator - a.denominator
    if den == 0:
        raise DegenerateDifference(f"equal denominators in {a}, {b}")
    return Fraction(b.numerator - a.numerator, den)


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
    stack = [(Fraction(0), Fraction(1))]
    while stack:
        left, right = stack.pop()
        center = mediant(left, right)
        if center.denominator > q_max:
            continue
        yield FriendlyTriplet(left, center, right)
        stack.append((center, right))
        stack.append((left, center))


class GeneratorMatrix(NamedTuple):
    """Canonical matrices of one generator in the three representations.

    The 2x2 block on (q_R, q_L) sits in the top-left corner of both larger
    matrices; all three have determinant +1.
    """

    kind: GeneratorKind
    two_by_two: intmat.Matrix
    three_by_three: intmat.Matrix
    four_by_four: intmat.Matrix


_MATRICES = {kind: GeneratorMatrix(kind, (four[0][:2], four[1][:2]), kind.label_rows, four)
             for kind, four in _FOUR.items()}


def canonical_matrices(kind: GeneratorKind) -> GeneratorMatrix:
    return _MATRICES[kind]


class ButterflyLabel(namedtuple("ButterflyLabel", "q_r q_l delta_sigma")):
    """Unique integer label (q_R, q_L, Delta-sigma) of a butterfly with tail."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, q_r: int, q_l: int, delta_sigma: int) -> ButterflyLabel:
        self = super().__new__(cls, q_r, q_l, delta_sigma)
        if q_r < 1 or q_l < 1:
            raise InvariantViolation(f"denominators must be positive: {self}")
        if gcd(q_r, q_l) != 1:
            raise InvariantViolation(f"edge denominators share a factor: {self}")
        q_c = q_r + q_l
        if abs(delta_sigma) >= q_c or (delta_sigma - q_c) % 2:
            raise InvariantViolation(f"Delta-sigma {delta_sigma} incompatible with q_c {q_c}")
        return self

    @property
    def q_c(self) -> int:
        return self.q_r + self.q_l

    @property
    def sigma_plus(self) -> int:
        return (self.q_c + self.delta_sigma) // 2

    @property
    def sigma_minus(self) -> int:
        return (self.q_c - self.delta_sigma) // 2


class ButterflyState(NamedTuple):
    """Flux edges and central slope pair of one butterfly.

    left < right are the friendly flux edges; the center is their mediant.
    sigma_plus and sigma_minus are the magnitudes of the two slopes of the
    density lines crossing at the central gap (the actual slopes are
    +sigma_plus and -sigma_minus), with sigma_plus + sigma_minus = q_c.

    Construction does not validate, so tests can tamper; `check` reports
    violations and the generator routes raise if one ever appears.
    """

    left: Fraction
    right: Fraction
    sigma_plus: int
    sigma_minus: int

    @property
    def center(self) -> Fraction:
        return mediant(self.left, self.right)

    @property
    def q_r(self) -> int:
        return self.right.denominator

    @property
    def q_l(self) -> int:
        return self.left.denominator

    @property
    def q_c(self) -> int:
        return self.q_r + self.q_l

    @property
    def delta_sigma(self) -> int:
        return self.sigma_plus - self.sigma_minus

    @property
    def width(self) -> Fraction:
        return self.right - self.left

    @property
    def label(self) -> ButterflyLabel:
        return ButterflyLabel(self.q_r, self.q_l, self.delta_sigma)

    @property
    def triplet(self) -> FriendlyTriplet:
        return FriendlyTriplet.from_pair(self.left, self.right)

    @property
    def tail_generator(self) -> Optional[GeneratorKind]:
        return tail_generator(self.q_r, self.q_l)

    @property
    def accumulation(self) -> Fraction:
        """Where the tail converges: the Farey difference of the edges."""
        return farey_difference(self.left, self.right)

    @property
    def core(self) -> Core:
        """The integers (q_R, q_L, sigma_+, sigma_-, p_R, p_L) of the state."""
        left, right, s_p, s_m = self
        return (right.denominator, left.denominator, s_p, s_m,
                right.numerator, left.numerator)

    @classmethod
    def from_core(cls, core: Core) -> "ButterflyState":
        """The state of a core.  A Fraction would divide a non-positive
        denominator away, so such a core raises InvariantViolation."""
        _check_denominators(core)
        q_r, q_l, s_p, s_m, p_r, p_l = core
        return cls(Fraction(p_l, q_l), Fraction(p_r, q_r), s_p, s_m)

    def check(self) -> list[str]:
        """Invariant failures, empty when the state is consistent."""
        return _problems(self.core)


ROOT_STATE = ButterflyState(Fraction(0), Fraction(1), 1, 1)
ROOT_LABEL = ButterflyLabel(1, 1, 0)


def apply_state(kind: GeneratorKind, state: ButterflyState) -> ButterflyState:
    """One generator step on the full state: the Fraction view of `state_route`.

    This route is independent of the canonical matrices; tests compare the
    two.  Raises TailDirectionMismatch for a chain step against the tail
    and InvariantViolation if the result fails its checks (never expected).
    """
    new = ButterflyState.from_core(state_route(kind, state.core))
    if new.check():
        raise _bad_step(kind, state.core, new.core)
    return new


def apply_label(kind: GeneratorKind, label: ButterflyLabel) -> ButterflyLabel:
    """One generator step on the integer label: the checked view of `label_route`."""
    return ButterflyLabel(*label_route(kind, label))
