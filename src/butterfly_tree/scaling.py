"""Scaling exponents of periodic tree paths, kept exact.

The 2x2 block of a generator word has determinant 1 and integer trace t.
For |t| >= 3 the dominant eigenvalue is the quadratic surd
(|t| + sqrt(t^2 - 4))/2 > 1: the factor by which denominators grow per
period, i.e. the self-similarity exponent of that periodic path.  Words
built purely from C/chain letters are unipotent (trace 2, polynomial
growth) and have no such exponent.

Everything is integer arithmetic: surds are (trace, discriminant) pairs,
continued fractions come from the exact (P, Q) recurrence for quadratic
irrationals, and powers use the trace recurrence t_{k+1} = t*t_k - t_{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from . import intmat
from .errors import InvariantViolation, ParabolicWord
from .generators import GeneratorKind, canonical_matrices


@dataclass(frozen=True)
class QuadraticSurd:
    """The number (t + sqrt(t^2 - 4))/2 for an integer trace t >= 3.

    Satisfies x^2 - t*x + 1 = 0; its inverse is the conjugate root
    (t - sqrt(t^2 - 4))/2, so value > 1 always.
    """

    trace: int

    def __post_init__(self) -> None:
        if self.trace < 3:
            raise ValueError(f"trace must be >= 3, got {self.trace}")

    @property
    def discriminant(self) -> int:
        return self.trace * self.trace - 4

    @property
    def value(self) -> float:
        try:
            return (self.trace + self.discriminant ** 0.5) / 2
        except OverflowError:
            return float("inf")

    def __float__(self) -> float:
        return self.value

    def power(self, k: int) -> "QuadraticSurd":
        """Surd of value**k, via the trace recurrence (exact)."""
        if k < 1:
            raise ValueError("power must be >= 1")
        prev, cur = 2, self.trace
        for _ in range(k - 1):
            prev, cur = cur, self.trace * cur - prev
        return QuadraticSurd(cur)


def word_block(word: Sequence[GeneratorKind]) -> intmat.Matrix:
    """Product of the 2x2 blocks of a word, left to right.

    The tree's tail preconditions do not apply here: any word denotes a
    group element even if no tree walk realizes it.
    """
    if not word:
        raise ValueError("word must be nonempty")
    out = canonical_matrices(word[0]).two_by_two
    for kind in word[1:]:
        out = intmat.mat_mul(out, canonical_matrices(kind).two_by_two)
    return out


def scaling_exponent(word: Sequence[GeneratorKind]) -> QuadraticSurd:
    """Dominant eigenvalue magnitude of the word block, as an exact surd."""
    t = word_block(word)
    trace = t[0][0] + t[1][1]
    if abs(trace) < 3:
        raise ParabolicWord(
            f"trace {trace}: no hyperbolic exponent for {[k.value for k in word]}")
    return QuadraticSurd(abs(trace))


@dataclass(frozen=True)
class ContinuedFraction:
    """Periodic continued fraction of a quadratic irrational.

    preperiod are the partial quotients before the cycle, period the
    repeating block; terms materializes the first requested quotients.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    terms: tuple[int, ...]

    def convergent(self, count: int) -> Fraction:
        """Value of the first `count` quotients (count >= 1)."""
        if count < 1 or count > len(self.terms):
            raise ValueError(f"count must be in 1..{len(self.terms)}")
        value = Fraction(self.terms[count - 1])
        for a in reversed(self.terms[:count - 1]):
            value = a + 1 / value
        return value

    def __str__(self) -> str:
        head = ",".join(str(a) for a in self.preperiod)
        cycle = ",".join(str(a) for a in self.period)
        return f"[{head}; ({cycle}) repeating]"


def cf_expansion(s: QuadraticSurd, terms: int = 12) -> ContinuedFraction:
    """Exact periodic continued fraction of a surd.

    Runs the integer (P, Q) recurrence for (P + sqrt(D))/Q; the state
    space is finite, so the first repeated state marks the period.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    d = s.discriminant
    root = isqrt(d)
    p, q = s.trace, 2
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while (p, q) not in seen:
        seen[(p, q)] = len(quotients)
        a = (p + root) // q
        quotients.append(a)
        p = a * q - p
        q_next, rem = divmod(d - p * p, q)
        if rem or q_next <= 0:
            raise InvariantViolation(f"recurrence left the surd domain at {(p, q)}")
        q = q_next
    start = seen[(p, q)]
    preperiod = tuple(quotients[:start])
    period = tuple(quotients[start:])
    out = list(preperiod)
    while len(out) < terms:
        out.extend(period)
    return ContinuedFraction(preperiod, period, tuple(out[:terms]))
