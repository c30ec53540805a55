"""Primitive Pythagorean triples and their tree, tied to the C-cell branch.

A coprime pair (m, n) of Euclid parameters generates a triple two ways
depending on parity: both odd gives (mn, (m^2-n^2)/2, (m^2+n^2)/2), mixed
parity gives (2mn, m^2-n^2, m^2+n^2).  Three matrices H_1, H_2, H_3 grow
the full tree of primitive triples from (3, 4, 5); the corresponding
moves h_1, h_2, h_3 act on the pairs, and the two pictures commute.

Butterflies plug in through (m, n) = (q_R, q_L): the parity class of the
pair is preserved exactly by the parity-preserving generators, so nodes
on C-cell/chain branches carry well-defined triples.  Under C_L, and again
under C_R, the C-branch (words over C_L, C_R, TL, TR) is the Berggren tree:
it reaches each ordered unequal coprime odd pair once, each edge below the
root's children is one H_i on the triples up to leg order, and H_2 is the C
letter on the parent's tail side (tested exhaustively to q_c <= 200).
"""

from __future__ import annotations

from collections import deque, namedtuple
from math import gcd, isqrt
from typing import Iterator, Optional, Union

from . import intmat
from .errors import InvariantViolation, NotCCell, NotCoprime

H_MATRICES: dict[int, intmat.Matrix] = {
    1: ((1, -2, 2), (2, -1, 2), (2, -2, 3)),
    2: ((1, 2, 2), (2, 1, 2), (2, 2, 3)),
    3: ((-1, 2, 2), (-2, 1, 2), (-2, 2, 3)),
}

h_MATRICES: dict[int, intmat.Matrix] = {
    1: ((1, 2), (0, 1)),
    2: ((2, 1), (1, 0)),
    3: ((2, -1), (1, 0)),
}


class EuclidPair(namedtuple("EuclidPair", "m n")):
    """Coprime positive parameters (m, n); (q_R, q_L) for butterflies."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, m: int, n: int) -> EuclidPair:
        if m < 1 or n < 1:
            raise NotCoprime(f"parameters must be positive: ({m}, {n})")
        if gcd(m, n) != 1:
            raise NotCoprime(f"({m}, {n}) is not coprime")
        return super().__new__(cls, m, n)


class PythTriple(namedtuple("PythTriple", "a b c")):
    """Pythagorean triple; b (or a) may be negative, c is positive.

    gcd(a, b, c) = 1, so the degenerate (1, 0, 1) of the root pair is
    allowed but imprimitive multiples are not.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, a: int, b: int, c: int) -> PythTriple:
        self = super().__new__(cls, a, b, c)
        if c <= 0:
            raise InvariantViolation(f"hypotenuse must be positive: {self}")
        if a * a + b * b != c * c:
            raise InvariantViolation(f"not a Pythagorean triple: {self}")
        if gcd(gcd(a, b), c) != 1:
            raise InvariantViolation(f"not primitive: {self}")
        return self

    @property
    def leg_set(self) -> tuple[int, int, int]:
        """Orientation-free form (smaller |leg|, larger |leg|, c)."""
        x, y = abs(self.a), abs(self.b)
        return (min(x, y), max(x, y), self.c)


PairLike = Union[EuclidPair, tuple]


def _triple(m: int, n: int) -> tuple[int, int, int]:
    """(a, b, c) of any integer pair, unchecked: (mn, (m^2-n^2)/2,
    (m^2+n^2)/2) for same parity, (2mn, m^2-n^2, m^2+n^2) otherwise."""
    if (m - n) % 2 == 0:
        return (m * n, (m * m - n * n) // 2, (m * m + n * n) // 2)
    return (2 * m * n, m * m - n * n, m * m + n * n)


def euclid_to_triple(pair: PairLike) -> PythTriple:
    """Triple of a coprime pair, branch chosen by parity.

    With m < n the middle entry comes out negative, which is how butterfly
    nodes with q_L > q_R (left tails) are distinguished.
    """
    m, n = EuclidPair(*pair)  # an EuclidPair is a pair too, checked again
    return PythTriple(*_triple(m, n))


def apply_H(i: int, t: PythTriple) -> PythTriple:
    """One tree step on a triple; preserves the identity, primitivity,
    and each entry's parity."""
    if i not in H_MATRICES:
        raise ValueError(f"H index must be 1, 2 or 3, got {i}")
    return PythTriple(*intmat.mat_vec(H_MATRICES[i], t))


def apply_h(i: int, pair: PairLike) -> EuclidPair:
    """One tree step on Euclid parameters; commutes with euclid_to_triple."""
    if i not in h_MATRICES:
        raise ValueError(f"h index must be 1, 2 or 3, got {i}")
    return EuclidPair(*intmat.mat_vec(h_MATRICES[i], EuclidPair(*pair)))


def primitive_triple_oracle(c_max: int) -> set[PythTriple]:
    """Brute-force scan of all primitive triples with positive entries.

    Independent of the tree: tries every leg pair a < b of opposite parity,
    each leg a against the set of squares up to c_max^2 in one intersection
    (so memory is O(c_max)), and orients odd leg first (the orientation the
    same-parity Euclid branch produces).  The other pairs hold no primitive
    triple: two even legs share the factor 2, and two odd legs give
    a^2 + b^2 = 2 (mod 4), which no square is.
    """
    if c_max < 5:
        raise ValueError("c_max must be at least 5")
    squares = [n * n for n in range(c_max + 1)]
    is_square = set(squares)
    found = set()
    for a in range(3, c_max):
        aa = a * a
        b_max = isqrt(squares[c_max] - aa)  # the largest b with c <= c_max
        for cc in is_square.intersection([aa + bb for bb in squares[a + 1:b_max + 1:2]]):
            b = isqrt(cc - aa)
            if gcd(a, b) == 1:
                odd, even = (a, b) if a % 2 else (b, a)
                found.add(PythTriple(odd, even, isqrt(cc)))
    return found


def triple_tree(c_max: Optional[int] = None,
                max_depth: Optional[int] = None,
                ) -> Iterator[tuple[tuple[int, ...], PythTriple]]:
    """Breadth-first H-tree from (3,4,5), bounded by c and/or word length.

    Yields (word, triple) pairs; words are tuples over {1,2,3}.  Pruning
    at c_max is exhaustive because every H_i strictly increases c.  The
    bounds are checked on the call, not on the first pair.
    """
    if c_max is None and max_depth is None:
        raise ValueError("need c_max or max_depth, the tree is infinite")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    return _triple_tree(c_max, max_depth)


def _triple_tree(c_max: Optional[int],
                 max_depth: Optional[int]) -> Iterator[tuple[tuple[int, ...], PythTriple]]:
    if c_max is not None and c_max < 5:
        return
    queue = deque([((), PythTriple(3, 4, 5))])
    while queue:
        word, triple = queue.popleft()
        yield word, triple
        if max_depth is not None and len(word) >= max_depth:
            continue
        for i in (1, 2, 3):
            grown = apply_H(i, triple)
            if c_max is None or grown.c <= c_max:
                queue.append((word + (i,), grown))


def cbranch_to_triple(node) -> PythTriple:
    """Triple of a parity-preserving tree node via (q_R, q_L) as (m, n).

    E-cell nodes break the parity class, so they are rejected; the root's
    degenerate (1, 0, 1) is produced rather than rejected.
    """
    if node.cell_class == "E-cell":
        raise NotCCell(
            f"{node.word_str} is an E-cell node; only parity-preserving "
            "nodes carry a triple")
    return euclid_to_triple(EuclidPair(*node.core[:2]))
