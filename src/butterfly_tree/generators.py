"""The eight generators of the butterfly hierarchy.

A butterfly with a tail is an equivalence class of nested sub-spectra,
pinned down by three integers (q_R, q_L, Delta-sigma): the denominators of
its right and left flux edges and the difference sigma_+ - sigma_- of its
two central gap slopes.  Six generators produce the babies inside a parent
(C_L, C_R preserve the parity of q_c = q_L + q_R; U_L, U_R, D_L, D_R do
not), and two chain generators (C_cL, C_cR) walk the tail attached to the
edge with the larger denominator.

Each generator is realised three ways, and the routes agree:

* an explicit recursion on the integer core,
* a 4x4 integer matrix on (q_R, q_L, sigma_+, sigma_-),
* its projections, 3x3 on (q_R, q_L, Delta-sigma) and 2x2 on (q_R, q_L).

Each generator is written once, as its step (A, B), the blocks of its 4x4
matrix [[A, 0], [B, I]]; its matrices, the q_c row the tree prunes by and
the chain letter its tail syntax allows next are built from the step at
import, and `_check_steps` checks them.  The tree steps only the integer
core: the 4x4 vector plus the edge numerators, which follow A.
`step_core` is that step, checked in full.  `_word_step` is the one
product of steps over a word, pairwise: `tree._replay` applies it to the
root and checks the result once, and `scaling.word_block` is its A half.
`tree.verify_node` checks each step by `state_route` and the literal table
`tree._EXPECTED_STEP`; `label_route`, built from the steps, checks the 3x3
layout.  The property tests compare every route with the canonical matrices.

Importing this module loads that integer core alone: no Fraction or Farey
arithmetic.  The Fraction views live in `farey`, which only the hook here
imports, the first time one of them (`_VIEWS`) is touched (PEP 562).

All eight matrices are unimodular (determinant +1 in every size).  The
C-type generators are unipotent; the U/D types have eigenvalues 1 and
(3 +/- sqrt(5))/2 in the 3x3 picture.
"""

from __future__ import annotations

import enum
from math import gcd
from typing import Optional, Sequence

from . import intmat
from .errors import InvariantViolation, TailDirectionMismatch


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
    # letter walks a chain, its cell class ("C-cell", "E-cell" or "chain"),
    # its step (A, B) and the tables built from it, set on each member
    # below: plain attributes, so reading one hashes no enum member.
    token: str
    is_chain: bool
    cell_class: str
    step: tuple[int, ...]
    label_rows: intmat.Matrix
    qc_row: tuple[int, int]
    tail_after: Optional["GeneratorKind"]

    @classmethod
    def from_token(cls, text: str) -> "GeneratorKind":
        """The generator a token names, in any case, with or without "_": the
        exact token is looked up first.  Anything else raises ValueError."""
        if isinstance(text, str):
            kind = _BY_KEY.get(text) or _BY_KEY.get(text.strip().upper().replace("_", ""))
            if kind is not None:
                return kind
        raise ValueError(f"unknown generator token {_repr_cut(text)}")


# The members as module globals, for the hot paths: a read through the enum
# class costs about 0.2 us, a global about 0.01 us.
_C_L, _C_R, _U_L, _U_R, _D_L, _D_R, _C_CL, _C_CR = GeneratorKind

# The one table of generator data: each step (A, B), row by row as
# (a, b, c, d, e, f, g, h).  A acts on (q_R, q_L) and on (p_R, p_L), and B
# adds to (sigma_+, sigma_-).  The loop builds the rest from it: the 4x4
# matrix, the 3x3 rows on (q_R, q_L, Delta-sigma) (A beside a zero column,
# over row sigma_+ less row sigma_-), the `qc_row` (u, v), the column sums
# of A, for a child's q_c = u q_R + v q_L, and the `tail_after`: a chain
# letter keeps its side, and a baby's is the sign of
# q_R' - q_L' = (a - c) q_R + (b - d) q_L, None where that is not fixed.
_FOUR: dict[GeneratorKind, intmat.Matrix] = {}
for _kind, (_token, _coefficients) in zip(GeneratorKind, (
        ("CL", (1, 2, 0, 1, 0, 1, 0, 1)),
        ("CR", (1, 0, 2, 1, 1, 0, 1, 0)),
        ("UL", (1, 1, 1, 2, 0, 1, 1, 1)),
        ("UR", (2, 1, 1, 1, 1, 1, 1, 0)),
        ("DL", (1, 1, 1, 2, 1, 1, 0, 1)),
        ("DR", (2, 1, 1, 1, 1, 0, 1, 1)),
        ("TL", (0, 1, -1, 2, -1, 1, -1, 1)),
        ("TR", (2, -1, 1, 0, 1, -1, 1, -1)))):
    _kind.token = _token
    _kind.is_chain = _kind in (_C_CL, _C_CR)
    _kind.cell_class = ("chain" if _kind.is_chain else "C-cell"
                        if _kind in (_C_L, _C_R) else "E-cell")
    _a, _b, _c, _d, _e, _f, _g, _h = _kind.step = _coefficients
    _FOUR[_kind] = ((_a, _b, 0, 0), (_c, _d, 0, 0), (_e, _f, 1, 0), (_g, _h, 0, 1))
    _kind.label_rows = ((_a, _b, 0), (_c, _d, 0), (_e - _g, _f - _h, 1))
    _kind.qc_row = (_a + _c, _b + _d)
    _kind.tail_after = (_kind if _kind.is_chain else _C_CR if min(_a - _c, _b - _d) >= 0
                        else _C_CL if max(_a - _c, _b - _d) <= 0 else None)
# Every accepted spelling, normalised as `from_token` normalises its input.
_BY_KEY = {key: kind for kind in GeneratorKind
           for key in (kind.token, kind.value.upper().replace("_", ""))}

BABY_KINDS = tuple(GeneratorKind)[:6]  # C_L, C_R, U_L, U_R, D_L, D_R

# The integer core of a butterfly: the 4x4 vector (q_R, q_L, sigma_+,
# sigma_-) followed by the edge numerators (p_R, p_L), which follow the
# same 2x2 block as their denominators.
Core = tuple[int, int, int, int, int, int]

ROOT_CORE: Core = (1, 1, 1, 1, 1, 0)  # edges 0/1 and 1/1, slopes 1 and 1


def _check_steps() -> None:
    """Raise unless every step block has determinant 1, as `tree._replay`'s one
    check of a word's product assumes, and every baby leaves one tail side,
    as its syntax pass assumes."""
    for kind in GeneratorKind:
        det = kind.step[0] * kind.step[3] - kind.step[1] * kind.step[2]
        if det != 1:
            raise InvariantViolation(f"{kind.value} step block has determinant {det}, not 1")
        if kind.tail_after is None:
            raise InvariantViolation(f"{kind.value} may leave either tail side")


_check_steps()


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
        return _C_CR
    if q_l > q_r:
        return _C_CL
    return None


def _repr_cut(value: object) -> str:
    """repr() bounded for an error text: past 60 characters, the first 40 and a count."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def _text(value: object) -> str:
    """str() of an int or int tuple for an error text.  An int past 332 bits
    (about 100 digits) shows its bit length, so a text stays short however
    deep the word; a tuple is written part by part."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_text, value)) + ")"
    bits = value.bit_length()
    return str(value) if bits <= 332 else f"<{bits}-bit integer>"


def _ratio(p: int, q: int) -> str:
    """p/q for an error text, in lowest terms as its Fraction prints it; q may be 0."""
    g = gcd(p, q) if q else 1
    if q < 0:
        g = -g
    p, q = p // g, q // g
    return _text(p) if q == 1 else f"{_text(p)}/{_text(q)}"


def _problems(core: Core) -> list[str]:
    """Invariant failures of an integer core, empty when it is consistent.

    Denominators must be positive, as in every Fraction and every step of
    a valid state; a core that breaks this reports only that, and then
    0 <= p_L/q_L < p_R/q_R <= 1 compares by cross-multiplication.
    Friendliness (determinant -1) implies both edges are in lowest terms.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    if q_r < 1 or q_l < 1:
        return [f"denominators must be positive: q_R={_text(q_r)}, q_L={_text(q_l)}"]
    problems = []
    cross, other = p_l * q_r, p_r * q_l
    if not (0 <= p_l and cross < other and p_r <= q_r):
        problems.append(f"edges out of order: {_ratio(p_l, q_l)}, {_ratio(p_r, q_r)}")
    if cross - other != -1:
        problems.append(f"edges not friendly: determinant {_text(cross - other)}")
    if s_p < 1 or s_m < 1:
        problems.append(f"slopes must be positive: {_text((s_p, s_m))}")
    if s_p + s_m != q_r + q_l:
        problems.append(f"slope sum {_text(s_p + s_m)} != q_c {_text(q_r + q_l)}")
    return problems


def _check_denominators(core: Core) -> None:
    """Raise InvariantViolation, worded by `_problems`, when q_R or q_L is below 1:
    a view would divide it away or by zero."""
    if core[0] < 1 or core[1] < 1:
        raise InvariantViolation(_problems(core)[0])


def _check_tail(kind: GeneratorKind, q_r: int, q_l: int, holder: str) -> None:
    if kind.is_chain and (q_r <= q_l if kind is _C_CR else q_l <= q_r):
        need = "q_R > q_L" if kind is _C_CR else "q_L > q_R"
        raise TailDirectionMismatch(
            f"{kind.value} needs {need}, {holder} has {_text((q_r, q_l))}")


def _bad_step(kind: GeneratorKind, core: Core, new: Core) -> InvariantViolation:
    """The error of a step from `core` whose result `new` breaks an invariant."""
    return InvariantViolation(f"{kind.value} on {_text(core)} produced a bad state: "
                              + "; ".join(_problems(new)))


def step_core(kind: GeneratorKind, core: Core) -> Core:
    """One generator step on the integer core, checked in full: the hot path of the tree.

    The 4x4 matrix acts on (q_R, q_L, sigma_+, sigma_-) and its 2x2 block
    on (p_R, p_L).  Raises TailDirectionMismatch for a chain step against
    the tail and InvariantViolation, with the message of `apply_state`, if
    the result has a denominator or a slope below 1, p_L < 0, p_R > q_R,
    a slope sum other than q_c or unfriendly edges.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    if kind.is_chain:
        _check_tail(kind, q_r, q_l, "state")
    a, b, c, d, e, f, g, h = kind.step
    new = q_r, q_l, s_p, s_m, p_r, p_l = (
        a * q_r + b * q_l, c * q_r + d * q_l, s_p + e * q_r + f * q_l,
        s_m + g * q_r + h * q_l, a * p_r + b * p_l, c * p_r + d * p_l)
    if not (q_r >= 1 and q_l >= 1 and s_p >= 1 and s_m >= 1 and 0 <= p_l
            and p_r <= q_r and s_p + s_m == q_r + q_l and p_l * q_r - p_r * q_l == -1):
        raise _bad_step(kind, core, new)
    return new


def _then(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[int, ...]:
    """Stepping by `first`, then `second`: as pairs (A, B) of matrices [[A, 0],
    [B, I]], laid out as `step`, (A1, B1) then (A2, B2) is (A2 A1, B1 + B2 A1)."""
    a, b, c, d, e, f, g, h = first
    a2, b2, c2, d2, e2, f2, g2, h2 = second
    return (a2 * a + b2 * c, a2 * b + b2 * d, c2 * a + d2 * c, c2 * b + d2 * d,
            e + e2 * a + f2 * c, f + e2 * b + f2 * d, g + g2 * a + h2 * c, h + g2 * b + h2 * d)


def _word_step(word: Sequence[GeneratorKind]) -> tuple[int, ...]:
    """The step coefficients of a whole word, laid out as one letter's `step`.

    Neighbours are multiplied pairwise by `_then`, level by level: a balanced
    product, whose bignum work grows with the result's size, not letters
    times size.  Each `step` is read on the call, as `step_core` reads
    it; nothing is checked.
    """
    pairs = [kind.step for kind in word]
    while len(pairs) > 1:  # an odd pair out moves up a level as it is
        pairs = [*map(_then, pairs[::2], pairs[1::2]), *pairs[len(pairs) // 2 * 2:]]
    return pairs[0] if pairs else (1, 0, 0, 1, 0, 0, 0, 0)


def state_route(kind: GeneratorKind, core: Core) -> Core:
    """One generator step on the integer core by the explicit recursion.

    A route independent of the matrices and of `step_core`.  Raises
    TailDirectionMismatch for a chain step against the tail; the result
    is not checked, and from unfriendly edges it may come out unreduced.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    _check_tail(kind, q_r, q_l, "state")
    q_c, p_c = q_r + q_l, p_r + p_l
    if kind is _C_L:
        return (q_r + 2 * q_l, q_l, s_p + q_l, s_m + q_l, p_r + 2 * p_l, p_l)
    if kind is _C_R:
        return (q_r, q_l + 2 * q_r, s_p + q_r, s_m + q_r, p_r, p_l + 2 * p_r)
    if kind is _U_L:
        return (q_c, q_c + q_l, s_p + q_l, s_m + q_c, p_c, p_c + p_l)
    if kind is _U_R:
        return (q_c + q_r, q_c, s_p + q_c, s_m + q_r, p_c + p_r, p_c)
    if kind is _D_L:
        return (q_c, q_c + q_l, s_p + q_c, s_m + q_l, p_c, p_c + p_l)
    if kind is _D_R:
        return (q_c + q_r, q_c, s_p + q_r, s_m + q_c, p_c + p_r, p_c)
    if kind is _C_CL:
        step = q_l - q_r
        return (q_l, 2 * q_l - q_r, s_p + step, s_m + step, p_l, 2 * p_l - p_r)
    step = q_r - q_l
    return (2 * q_r - q_l, q_r, s_p + step, s_m + step, 2 * p_r - p_l, p_r)


def label_route(kind: GeneratorKind, label: tuple[int, int, int]) -> tuple[int, int, int]:
    """One generator step on the integers (q_R, q_L, Delta-sigma), via the 3x3 matrix.

    Written out, as `intmat.mat_vec` costs more than the rest of the
    cross-route check.  Raises TailDirectionMismatch for a chain step
    against the tail; the result is not checked.
    """
    q_r, q_l, d_s = label
    _check_tail(kind, q_r, q_l, "label")
    (a, b, c), (d, e, f), (g, h, i) = kind.label_rows
    return (a * q_r + b * q_l + c * d_s, d * q_r + e * q_l + f * d_s,
            g * q_r + h * q_l + i * d_s)


_VIEWS = ("ButterflyLabel", "ButterflyState", "GeneratorMatrix", "ROOT_LABEL", "ROOT_STATE",
          "apply_label", "apply_state", "canonical_matrices")


def __getattr__(name: str):
    """The Fraction views of `farey`, imported on first touch (PEP 562) and kept in
    the globals; the name is checked first, as the import machinery probes `__path__`."""
    if name not in _VIEWS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .farey import (ROOT_LABEL, ROOT_STATE, ButterflyLabel, ButterflyState,
                        GeneratorMatrix, apply_label, apply_state, canonical_matrices)
    views = locals()
    globals().update((view, views[view]) for view in _VIEWS)
    return views[name]
