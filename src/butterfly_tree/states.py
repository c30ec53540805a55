"""The Fraction views of the generators: states, labels and matrix triples.

`generators` steps the integer core and imports none of this.  It loads on
first touch: a name re-exported by `generators` (PEP 562), `TreeNode.state`
or `.label`.  `apply_state` and `apply_label` are the checked views of
`state_route` and `label_route`.  Each record is a named tuple, as all the
package's are; `ButterflyLabel` checks itself however it is built.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from . import intmat
from .errors import InvariantViolation
from .farey import FareyDifference, FriendlyTriplet, farey_difference, mediant
from .generators import (_FOUR, Core, GeneratorKind, _bad_step, _check_denominators,
                         _problems, label_route, state_route, tail_generator)


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
    def accumulation(self) -> FareyDifference:
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
