"""The eight generators of the butterfly hierarchy.

A butterfly with a tail is an equivalence class of nested sub-spectra,
pinned down by three integers (q_R, q_L, Delta-sigma): the denominators of
its right and left flux edges and the difference sigma_+ - sigma_- of its
two central gap slopes.  Six generators produce the babies inside a parent
(C_L, C_R preserve the parity of q_c = q_L + q_R; U_L, U_R, D_L, D_R do
not), and two chain generators (C_cL, C_cR) walk the tail attached to the
edge with the larger denominator.

Each generator is realised three ways and the routes must agree:

* an explicit recursion on the full state (flux edges + slope pair),
* a 4x4 integer matrix on (q_R, q_L, sigma_+, sigma_-),
* its projections, 3x3 on (q_R, q_L, Delta-sigma) and 2x2 on (q_R, q_L).

The tree steps only the integer core: the 4x4 vector plus the edge
numerators, which follow the 2x2 block (`step_core`).  Fraction states and
labels are views built from it.  The other routes are cross-checks on
plain integers too: `state_route` is the explicit recursion and
`label_route` the 3x3 matrix; `apply_state` and `apply_label` are their
object views.

All eight matrices are unimodular (determinant +1 in every size).  The
C-type generators are unipotent; the U/D types have eigenvalues 1 and
(3 +/- sqrt(5))/2 in the 3x3 picture.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from . import intmat
from .errors import InvariantViolation, TailDirectionMismatch
from .farey import FareyDifference, FriendlyTriplet, farey_difference, mediant


class GeneratorKind(enum.Enum):
    """The eight generators, in canonical child order."""

    C_L = "C_L"
    C_R = "C_R"
    U_L = "U_L"
    U_R = "U_R"
    D_L = "D_L"
    D_R = "D_R"
    C_CL = "C_cL"
    C_CR = "C_cR"

    # The two-letter command-line token (chains are TL/TR), whether the
    # letter walks a chain, its cell class ("C-cell", "E-cell" or "chain")
    # and the step coefficients of its 4x4 matrix, set on each member
    # below: plain attributes, so reading one hashes no enum member.
    token: str
    is_chain: bool
    cell_class: str
    step: tuple[int, ...]

    @classmethod
    def from_token(cls, text: str) -> "GeneratorKind":
        key = text.strip().upper().replace("_", "")
        for kind, token in _TOKENS.items():
            if key == token or key == kind.value.upper().replace("_", ""):
                return kind
        raise ValueError(f"unknown generator token {text!r}")

    @property
    def is_parity_preserving(self) -> bool:
        """C-type babies keep the parity of q_c; U/D babies do not."""
        return self in (GeneratorKind.C_L, GeneratorKind.C_R)


_TOKENS = {
    GeneratorKind.C_L: "CL",
    GeneratorKind.C_R: "CR",
    GeneratorKind.U_L: "UL",
    GeneratorKind.U_R: "UR",
    GeneratorKind.D_L: "DL",
    GeneratorKind.D_R: "DR",
    GeneratorKind.C_CL: "TL",
    GeneratorKind.C_CR: "TR",
}
for _kind, _token in _TOKENS.items():
    _kind.token = _token
    _kind.is_chain = _kind in (GeneratorKind.C_CL, GeneratorKind.C_CR)
    _kind.cell_class = ("chain" if _kind.is_chain else
                        "C-cell" if _kind.is_parity_preserving else "E-cell")

BABY_KINDS = (
    GeneratorKind.C_L,
    GeneratorKind.C_R,
    GeneratorKind.U_L,
    GeneratorKind.U_R,
    GeneratorKind.D_L,
    GeneratorKind.D_R,
)

# 4x4 action on the column (q_R, q_L, sigma_+, sigma_-).  The upper-left
# 2x2 block acts on the denominators alone and the 3x3 projection onto
# (q_R, q_L, Delta-sigma) follows by subtracting the last two rows.
_FOUR: dict[GeneratorKind, intmat.Matrix] = {
    GeneratorKind.C_L: ((1, 2, 0, 0),
                        (0, 1, 0, 0),
                        (0, 1, 1, 0),
                        (0, 1, 0, 1)),
    GeneratorKind.C_R: ((1, 0, 0, 0),
                        (2, 1, 0, 0),
                        (1, 0, 1, 0),
                        (1, 0, 0, 1)),
    GeneratorKind.U_L: ((1, 1, 0, 0),
                        (1, 2, 0, 0),
                        (0, 1, 1, 0),
                        (1, 1, 0, 1)),
    GeneratorKind.U_R: ((2, 1, 0, 0),
                        (1, 1, 0, 0),
                        (1, 1, 1, 0),
                        (1, 0, 0, 1)),
    GeneratorKind.D_L: ((1, 1, 0, 0),
                        (1, 2, 0, 0),
                        (1, 1, 1, 0),
                        (0, 1, 0, 1)),
    GeneratorKind.D_R: ((2, 1, 0, 0),
                        (1, 1, 0, 0),
                        (1, 0, 1, 0),
                        (1, 1, 0, 1)),
    GeneratorKind.C_CL: ((0, 1, 0, 0),
                         (-1, 2, 0, 0),
                         (-1, 1, 1, 0),
                         (-1, 1, 0, 1)),
    GeneratorKind.C_CR: ((2, -1, 0, 0),
                         (1, 0, 0, 0),
                         (1, -1, 1, 0),
                         (1, -1, 0, 1)),
}


# The integer core of a butterfly: the 4x4 vector (q_R, q_L, sigma_+,
# sigma_-) followed by the edge numerators (p_R, p_L), which follow the
# same 2x2 block as their denominators.
Core = tuple[int, int, int, int, int, int]

# Every 4x4 matrix is [[A, 0], [B, I]] in 2x2 blocks, so a step needs only
# the entries of A (rows 0-1) and B (rows 2-3) in the first two columns.
# Each member keeps them as a plain attribute, like its token.
for _kind, _m in _FOUR.items():
    _kind.step = _m[0][:2] + _m[1][:2] + _m[2][:2] + _m[3][:2]


def _project_three(m4: intmat.Matrix) -> intmat.Matrix:
    """3x3 matrix on (q_R, q_L, Delta-sigma) implied by the 4x4 one."""
    top = [m4[0][:2] + (0,), m4[1][:2] + (0,)]
    plus, minus = m4[2], m4[3]
    third = tuple(plus[j] - minus[j] for j in range(2)) + (1,)
    return tuple(top) + (third,)


def _project_two(m4: intmat.Matrix) -> intmat.Matrix:
    return (m4[0][:2], m4[1][:2])


@dataclass(frozen=True)
class GeneratorMatrix:
    """Canonical matrices of one generator in the three representations.

    The 2x2 block on (q_R, q_L) sits in the top-left corner of both larger
    matrices; all three have determinant +1.
    """

    kind: GeneratorKind
    two_by_two: intmat.Matrix
    three_by_three: intmat.Matrix
    four_by_four: intmat.Matrix


_MATRICES = {kind: GeneratorMatrix(kind, _project_two(four), _project_three(four), four)
             for kind, four in _FOUR.items()}


def canonical_matrices(kind: GeneratorKind) -> GeneratorMatrix:
    return _MATRICES[kind]


def tail_side(q_r: int, q_l: int) -> str:
    """The tail points at the edge with the larger denominator."""
    if q_r > q_l:
        return "right"
    if q_l > q_r:
        return "left"
    return "none"


def tail_generator(q_r: int, q_l: int) -> Optional[GeneratorKind]:
    """The chain generator that walks the tail, None when there is none."""
    if q_r > q_l:
        return GeneratorKind.C_CR
    if q_l > q_r:
        return GeneratorKind.C_CL
    return None


@dataclass(frozen=True)
class ButterflyLabel:
    """Unique integer label (q_R, q_L, Delta-sigma) of a butterfly with tail."""

    q_r: int
    q_l: int
    delta_sigma: int

    def __post_init__(self) -> None:
        if self.q_r < 1 or self.q_l < 1:
            raise InvariantViolation(f"denominators must be positive: {self}")
        if gcd(self.q_r, self.q_l) != 1:
            raise InvariantViolation(f"edge denominators share a factor: {self}")
        q_c = self.q_r + self.q_l
        if abs(self.delta_sigma) >= q_c or (self.delta_sigma - q_c) % 2:
            raise InvariantViolation(
                f"Delta-sigma {self.delta_sigma} incompatible with q_c {q_c}")

    @property
    def q_c(self) -> int:
        return self.q_r + self.q_l

    @property
    def sigma_plus(self) -> int:
        return (self.q_c + self.delta_sigma) // 2

    @property
    def sigma_minus(self) -> int:
        return (self.q_c - self.delta_sigma) // 2

    @property
    def tail_direction(self) -> str:
        return tail_side(self.q_r, self.q_l)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.q_r, self.q_l, self.delta_sigma)


@dataclass(frozen=True)
class ButterflyState:
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
    def tail_direction(self) -> str:
        return tail_side(self.q_r, self.q_l)

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
        return (self.right.denominator, self.left.denominator,
                self.sigma_plus, self.sigma_minus,
                self.right.numerator, self.left.numerator)

    @classmethod
    def from_core(cls, core: Core) -> "ButterflyState":
        q_r, q_l, s_p, s_m, p_r, p_l = core
        return cls(Fraction(p_l, q_l), Fraction(p_r, q_r), s_p, s_m)

    def check(self) -> list[str]:
        """Invariant failures, empty when the state is consistent."""
        return _problems(self.core)


ROOT_STATE = ButterflyState(Fraction(0), Fraction(1), 1, 1)
ROOT_LABEL = ButterflyLabel(1, 1, 0)


def _problems(core: Core) -> list[str]:
    """Invariant failures of an integer core, empty when it is consistent.

    Denominators must be positive, as in every Fraction and every step of
    a valid state; a core that breaks this reports only that, and then
    0 <= p_L/q_L < p_R/q_R <= 1 compares by cross-multiplication.
    Friendliness (determinant -1) implies both edges are in lowest terms.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    if q_r < 1 or q_l < 1:
        return [f"denominators must be positive: q_R={q_r}, q_L={q_l}"]
    problems = []
    cross, other = p_l * q_r, p_r * q_l
    if not (0 <= p_l and cross < other and p_r <= q_r):
        problems.append(
            f"edges out of order: {Fraction(p_l, q_l)}, {Fraction(p_r, q_r)}")
    if cross - other != -1:
        problems.append(f"edges not friendly: determinant {cross - other}")
    if s_p < 1 or s_m < 1:
        problems.append(f"slopes must be positive: ({s_p}, {s_m})")
    if s_p + s_m != q_r + q_l:
        problems.append(f"slope sum {s_p + s_m} != q_c {q_r + q_l}")
    return problems


def _check_tail(kind: GeneratorKind, q_r: int, q_l: int, holder: str) -> None:
    if kind is GeneratorKind.C_CR and q_r <= q_l:
        raise TailDirectionMismatch(
            f"C_cR needs q_R > q_L, {holder} has ({q_r}, {q_l})")
    if kind is GeneratorKind.C_CL and q_l <= q_r:
        raise TailDirectionMismatch(
            f"C_cL needs q_L > q_R, {holder} has ({q_r}, {q_l})")


def step_core(kind: GeneratorKind, core: Core) -> Core:
    """One generator step on the integer core: the hot path of the tree.

    The 4x4 matrix acts on (q_R, q_L, sigma_+, sigma_-) and its 2x2 block
    on the numerators (p_R, p_L).  Raises TailDirectionMismatch for a
    chain step against the tail and InvariantViolation, with the message
    of `apply_state`, if the result breaks an invariant.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    if kind.is_chain:
        _check_tail(kind, q_r, q_l, "state")
    a, b, c, d, e, f, g, h = kind.step
    new = (a * q_r + b * q_l, c * q_r + d * q_l,
           s_p + e * q_r + f * q_l, s_m + g * q_r + h * q_l,
           a * p_r + b * p_l, c * p_r + d * p_l)
    problems = _problems(new)
    if problems:
        raise InvariantViolation(
            f"{kind.value} on {ButterflyState.from_core(core)} produced a bad "
            f"state: " + "; ".join(problems))
    return new


def state_route(kind: GeneratorKind, core: Core) -> Core:
    """One generator step on the integer core by the explicit recursion.

    A route independent of the matrices and of `step_core`.  Raises
    TailDirectionMismatch for a chain step against the tail; the result
    is not checked, and from unfriendly edges it may come out unreduced.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    _check_tail(kind, q_r, q_l, "state")
    q_c, p_c = q_r + q_l, p_r + p_l
    if kind is GeneratorKind.C_L:
        return (q_r + 2 * q_l, q_l, s_p + q_l, s_m + q_l, p_r + 2 * p_l, p_l)
    if kind is GeneratorKind.C_R:
        return (q_r, q_l + 2 * q_r, s_p + q_r, s_m + q_r, p_r, p_l + 2 * p_r)
    if kind is GeneratorKind.U_L:
        return (q_c, q_c + q_l, s_p + q_l, s_m + q_c, p_c, p_c + p_l)
    if kind is GeneratorKind.U_R:
        return (q_c + q_r, q_c, s_p + q_c, s_m + q_r, p_c + p_r, p_c)
    if kind is GeneratorKind.D_L:
        return (q_c, q_c + q_l, s_p + q_c, s_m + q_l, p_c, p_c + p_l)
    if kind is GeneratorKind.D_R:
        return (q_c + q_r, q_c, s_p + q_r, s_m + q_c, p_c + p_r, p_c)
    if kind is GeneratorKind.C_CL:
        step = q_l - q_r
        return (q_l, 2 * q_l - q_r, s_p + step, s_m + step, p_l, 2 * p_l - p_r)
    step = q_r - q_l
    return (2 * q_r - q_l, q_r, s_p + step, s_m + step, 2 * p_r - p_l, p_r)


def apply_state(kind: GeneratorKind, state: ButterflyState) -> ButterflyState:
    """One generator step on the full state: the Fraction view of `state_route`.

    This route is independent of the canonical matrices; tests compare the
    two.  Raises TailDirectionMismatch for a chain step against the tail
    and InvariantViolation if the result fails its checks (never expected).
    """
    new = ButterflyState.from_core(state_route(kind, state.core))
    problems = new.check()
    if problems:
        raise InvariantViolation(
            f"{kind.value} on {state} produced a bad state: " + "; ".join(problems))
    return new


def label_route(kind: GeneratorKind, label: tuple[int, int, int]) -> tuple[int, int, int]:
    """One generator step on the integers (q_R, q_L, Delta-sigma), via the 3x3 matrix.

    Written out, as `intmat.mat_vec` costs more than the rest of the
    cross-route check.  Raises TailDirectionMismatch for a chain step
    against the tail; the result is not checked.
    """
    q_r, q_l, d_s = label
    _check_tail(kind, q_r, q_l, "label")
    (a, b, c), (d, e, f), (g, h, i) = _MATRICES[kind].three_by_three
    return (a * q_r + b * q_l + c * d_s, d * q_r + e * q_l + f * d_s,
            g * q_r + h * q_l + i * d_s)


def apply_label(kind: GeneratorKind, label: ButterflyLabel) -> ButterflyLabel:
    """One generator step on the integer label: the checked view of `label_route`."""
    return ButterflyLabel(*label_route(kind, label.as_tuple()))


@dataclass(frozen=True)
class ConsistencyReport:
    """Agreement of the state recursion with the three matrix routes."""

    kind: GeneratorKind
    from_state: tuple[int, int, int, int]
    from_four: tuple[int, ...]
    from_three: tuple[int, ...]
    from_two: tuple[int, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def representation_consistency(kind: GeneratorKind,
                               state: ButterflyState) -> ConsistencyReport:
    """Apply one generator along all routes and compare the results.

    The state route uses the explicit recursion; the matrix routes act on
    (q_R, q_L, sigma_+, sigma_-), (q_R, q_L, Delta-sigma) and (q_R, q_L).
    """
    mats = canonical_matrices(kind)
    new = apply_state(kind, state)
    from_state = (new.q_r, new.q_l, new.sigma_plus, new.sigma_minus)
    four = intmat.mat_vec(mats.four_by_four, (state.q_r, state.q_l,
                                              state.sigma_plus, state.sigma_minus))
    three = intmat.mat_vec(mats.three_by_three,
                           (state.q_r, state.q_l, state.delta_sigma))
    two = intmat.mat_vec(mats.two_by_two, (state.q_r, state.q_l))
    failures = []
    if four != from_state:
        failures.append(f"4x4 route {four} != state route {from_state}")
    if three != (new.q_r, new.q_l, new.delta_sigma):
        failures.append(f"3x3 route {three} != state route "
                        f"{(new.q_r, new.q_l, new.delta_sigma)}")
    if two != (new.q_r, new.q_l):
        failures.append(f"2x2 route {two} != state route {(new.q_r, new.q_l)}")
    return ConsistencyReport(kind, from_state, four, three, two, tuple(failures))
