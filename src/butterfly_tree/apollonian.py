"""Descartes quadruples, the Apollonian group, and Ford quadruples.

Four mutually tangent circles have curvatures satisfying the Descartes
identity 2*(k1^2+..+k4^2) = (k1+..+k4)^2.  Swapping the circle inscribed
opposite circle i is the linear involution S_i: k_i -> 2*(sum of the
others) - k_i.  Its transpose, the adjoint A_i: k_i -> -k_i and
k_j -> k_j + 2*k_i for j != i, also preserves the identity; together they
generate the super-Apollonian group.  Every move is computed in closed
form on plain 4-tuples (`_reflect`, `_adjoin`); `S_MATRICES` and
`adjoint_S` are the same moves as matrices, kept as data.

Butterflies enter through Ford circles: the two edge fractions and the
center of a butterfly own tangent Ford circles of curvatures q_L^2,
q_R^2, q_c^2, tangent to the base line (curvature 0).  A linear bridge
carries Pythagorean triples onto the same quadruples, and short S-words
reproduce the pair moves h_1, h_2, h_3 and the edge moves u_L, u_R up to
a coordinate permutation; the search below enumerates which words and
permutations work rather than hard-coding one convention.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd
from operator import itemgetter
from typing import NamedTuple, Sequence, Union

from . import intmat
from .errors import InvariantViolation
from .generators import GeneratorKind
from .pythagoras import PythTriple, h_MATRICES


def _s_matrix(i: int) -> intmat.Matrix:
    return tuple(
        tuple((-1 if col == i - 1 else 2) if row == i - 1 else (1 if col == row else 0)
              for col in range(4))
        for row in range(4))


S_MATRICES: dict[int, intmat.Matrix] = {i: _s_matrix(i) for i in (1, 2, 3, 4)}


def _check_descartes(ks: tuple[int, ...]) -> None:
    if 2 * sum(k * k for k in ks) != sum(ks) ** 2:
        raise InvariantViolation(f"Descartes identity fails for {ks}")


class DescartesQuadruple(namedtuple("DescartesQuadruple", "k1 k2 k3 k4")):
    """Curvatures of four mutually tangent circles; identity enforced."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, k1: int, k2: int, k3: int, k4: int) -> DescartesQuadruple:
        _check_descartes((k1, k2, k3, k4))
        return super().__new__(cls, k1, k2, k3, k4)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.k1, self.k2, self.k3, self.k4)


QuadLike = Union[DescartesQuadruple, Sequence[int]]


def _as_quad(q: QuadLike) -> DescartesQuadruple:
    if isinstance(q, DescartesQuadruple):
        return q
    ks = tuple(q)
    if len(ks) != 4:
        raise ValueError(f"a quadruple needs 4 curvatures, got {len(ks)}")
    for position, k in enumerate(ks, 1):
        if not isinstance(k, int):
            raise ValueError(f"curvature {position} is not an integer: {k!r}")
    return DescartesQuadruple(*ks)


def _reflect(i: int, quad: tuple[int, ...]) -> tuple[int, ...]:
    """S_i in closed form: k_i -> 2*(k1+k2+k3+k4) - 3*k_i."""
    j = i - 1
    return quad[:j] + (2 * sum(quad) - 3 * quad[j],) + quad[i:]


def _adjoin(i: int, quad: tuple[int, ...]) -> tuple[int, ...]:
    """A_i = S_i transposed, in closed form: k_i -> -k_i, k_j -> k_j + 2*k_i."""
    twice = 2 * quad[i - 1]
    return tuple(-k if j == i else k + twice for j, k in enumerate(quad, 1))


_MOVES = [(_reflect, i) for i in (1, 2, 3, 4)] + [(_adjoin, i) for i in (1, 2, 3, 4)]


def _index(i: int) -> int:
    if i not in S_MATRICES:
        raise ValueError(f"S index must be 1..4, got {i}")
    return i


def apply_S(i: int, q: QuadLike) -> DescartesQuadruple:
    """Replace curvature k_i by 2*(sum of the others) - k_i."""
    return DescartesQuadruple(*_reflect(_index(i), _as_quad(q).as_tuple()))


def apply_A(i: int, q: QuadLike) -> DescartesQuadruple:
    """Apply the adjoint A_i: k_i -> -k_i, and k_j -> k_j + 2*k_i for j != i."""
    return DescartesQuadruple(*_adjoin(_index(i), _as_quad(q).as_tuple()))


def adjoint_S(i: int) -> intmat.Matrix:
    """Transpose of S_i: the matrix of A_i."""
    return tuple(zip(*S_MATRICES[_index(i)]))


def super_orbit(seed: QuadLike, depth: int) -> set[tuple[int, int, int, int]]:
    """Distinct quadruples within `depth` steps of S_1..S_4 and A_1..A_4.

    A breadth-first search, level by level, over plain tuples.  Each
    quadruple is checked against the Descartes identity when it is first
    reached, with the error of `DescartesQuadruple`, so building the orbit
    proves that every word preserves the identity.
    """
    start = _as_quad(seed).as_tuple()
    seen, level = {start}, [start]
    for _ in range(depth):
        grown = []
        for quad in level:
            for move, i in _MOVES:
                new = move(i, quad)
                if new not in seen:
                    _check_descartes(new)
                    seen.add(new)
                    grown.append(new)
        level = grown
    return seen


def ford_quadruple(state) -> DescartesQuadruple:
    """Curvatures (q_L^2, q_R^2, q_c^2, 0) of a butterfly's Ford circles.

    The base line is the fourth, zero-curvature member; the identity holds
    automatically because the edges are Farey neighbours.
    """
    return DescartesQuadruple(state.q_l ** 2, state.q_r ** 2, state.q_c ** 2, 0)


def triple_to_quadruple(t: PythTriple) -> DescartesQuadruple:
    """Linear bridge (a, b, c) -> (c-b, c+b, 2(c+a), 0).

    Sends the triple of a same-parity Euclid pair exactly onto the pair's
    Ford quadruple, and a mixed-parity pair's triple onto twice it.
    """
    return DescartesQuadruple(t.c - t.b, t.c + t.b, 2 * (t.c + t.a), 0)


def _step_matrix(h_index: Union[int, str]) -> tuple[str, intmat.Matrix]:
    """Name and 2x2 pair matrix of a move: h1..h3 of the Pythagorean tree,
    or the parity-breaking edge generators U_L, U_R, whose 2x2 block is the
    top-left of their 3x3 label matrix."""
    step = f"h{h_index}" if isinstance(h_index, int) else h_index
    if step in ("h1", "h2", "h3"):
        return step, h_MATRICES[int(step[1])]
    if step in ("U_L", "U_R"):
        top, middle, _ = GeneratorKind[step].label_rows
        return step, (top[:2], middle[:2])
    raise ValueError(f"unknown step {h_index!r}")


def _pair_ford(m: int, n: int) -> tuple[int, int, int, int]:
    return (n * n, m * m, (m + n) ** 2, 0)


class CorrespondenceReport(NamedTuple):
    """All (word, permutation) conventions realizing one pair move.

    Words are tuples of S indices applied left to right; a permutation
    perm means word(Ford(x)) equals Ford(step(x)) reordered so that slot
    j holds coordinate perm[j] of the target, for every tested pair x.
    """

    step: str
    max_word_length: int
    pairs_tested: int
    matches: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def found(self) -> bool:
        return bool(self.matches)


def correspondence_search(h_index: Union[int, str],
                          max_word_length: int = 3,
                          pair_bound: int = 12) -> CorrespondenceReport:
    """Exhaustive search for S-words intertwining one pair move.

    h_index: 1, 2, 3 (as "h1".."h3") or "U_L"/"U_R".  Tests every word
    over S_1..S_4 up to max_word_length against every output coordinate
    permutation, on all coprime pairs m > n within pair_bound.  An empty
    match list is a finding, not an error; max_word_length < 1 and
    pair_bound < 2, which would test nothing, raise ValueError.
    """
    return _correspondence_searches((h_index,), max_word_length, pair_bound)[0]


def _correspondence_searches(h_indices: Sequence, max_word_length: int, pair_bound: int) -> list:
    """`correspondence_search` of each move, over S-words computed once for all."""
    moves = [_step_matrix(h_index) for h_index in h_indices]
    if max_word_length < 1:
        raise ValueError(f"max_word_length must be at least 1, got {max_word_length}")
    if pair_bound < 2:
        raise ValueError(f"pair_bound must be at least 2, got {pair_bound}")
    pairs = [(m, n) for m in range(2, pair_bound + 1) for n in range(1, m) if gcd(m, n) == 1]
    # Every move's targets under every permutation, so a word matches by one lookup.
    wanted: dict[tuple, list] = {}
    for move, (_, matrix) in enumerate(moves):
        targets = [_pair_ford(*intmat.mat_vec(matrix, (m, n))) for m, n in pairs]
        for perm in itertools.permutations(range(4)):
            wanted.setdefault(tuple(map(itemgetter(*perm), targets)), []).append((move, perm))
    # Words of one length, in lexicographic order, with their outputs on
    # every source quadruple; each word extends its prefix by one S.
    level = [((), tuple(_pair_ford(m, n) for m, n in pairs))]
    matches: list[list] = [[] for _ in moves]
    for _ in range(max_word_length):
        level = [(word + (i,), tuple(_reflect(i, quad) for quad in outputs))
                 for word, outputs in level for i in (1, 2, 3, 4)]
        for word, outputs in level:
            for move, perm in wanted.get(outputs, ()):
                matches[move].append((word, perm))
    return [CorrespondenceReport(step, max_word_length, len(pairs), tuple(found))
            for (step, _), found in zip(moves, matches)]
