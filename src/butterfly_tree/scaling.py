"""Scaling exponents of periodic tree paths, kept exact.

The 2x2 block of a generator word has determinant 1 and integer trace t.
For |t| >= 3 the dominant eigenvalue is the quadratic surd
(|t| + sqrt(t^2 - 4))/2 > 1: the factor by which denominators grow per
period, i.e. the self-similarity exponent of that periodic path.  Words
built purely from C/chain letters are unipotent (trace 2, polynomial
growth) and have no such exponent.

Everything is integer arithmetic: a word block is the 2x2 half of the
package's one product of steps over a word (`generators._word_step`),
surds are (trace, discriminant) pairs, continued fractions are the closed
form [t-1; (1, t-2)] that x = t - 1/x gives, and powers use the trace
recurrence t_{k+1} = t*t_k - t_{k-1}.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, cycle, islice
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import intmat
from .errors import ParabolicWord
from .generators import GeneratorKind, _word_step

if TYPE_CHECKING:
    from fractions import Fraction


class QuadraticSurd(namedtuple("QuadraticSurd", "trace")):
    """The number (t + sqrt(t^2 - 4))/2 for an integer trace t >= 3.

    Satisfies x^2 - t*x + 1 = 0; its inverse is the conjugate root
    (t - sqrt(t^2 - 4))/2, so value > 1 always.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, trace: int) -> QuadraticSurd:
        if trace < 3:
            raise ValueError(f"trace must be >= 3, got {trace}")
        return super().__new__(cls, trace)

    @property
    def discriminant(self) -> int:
        return self.trace * self.trace - 4

    @property
    def value(self) -> float:
        try:
            return (self.trace + self.discriminant ** 0.5) / 2
        except OverflowError:
            return float("inf")

    def power(self, k: int) -> "QuadraticSurd":
        """Surd of value**k, via the trace recurrence (exact)."""
        if k < 1:
            raise ValueError("power must be >= 1")
        prev, cur = 2, self.trace
        for _ in range(k - 1):
            prev, cur = cur, self.trace * cur - prev
        return QuadraticSurd(cur)


def word_block(word: Sequence[GeneratorKind]) -> intmat.Matrix:
    """Product of the 2x2 blocks of a word, in order: M_1 ... M_n.

    The A half of `generators._word_step` on the reversed word, which steps
    by M_n ... M_1.  Tail preconditions do not apply: any word denotes a
    group element.
    """
    if not word:
        raise ValueError("word must be nonempty")
    a, b, c, d = _word_step(word[::-1])[:4]
    return ((a, b), (c, d))


def trace_exponent(trace: int, word: Sequence[GeneratorKind]) -> QuadraticSurd:
    """The exact surd of a word whose block has this (signed) trace."""
    if abs(trace) < 3:
        names = [k.value for k in word]
        if len(names) > 20:  # bound the error line: the count and both ends
            names = f"{len(names)} letters {names[:4]} ... {names[-4:]}"
        raise ParabolicWord(f"trace {trace}: no hyperbolic exponent for {names}")
    return QuadraticSurd(abs(trace))


def scaling_exponent(word: Sequence[GeneratorKind]) -> QuadraticSurd:
    """Dominant eigenvalue magnitude of the word block, as an exact surd."""
    (a, _), (_, d) = word_block(word)
    return trace_exponent(a + d, word)


class ContinuedFraction(NamedTuple):
    """Periodic continued fraction of a quadratic irrational.

    preperiod are the partial quotients before the cycle, period the
    repeating block; terms materializes the first requested quotients.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    terms: tuple[int, ...]

    def convergent(self, count: int) -> Fraction:
        """Value of the first `count` quotients (count >= 1)."""
        import fractions
        if count < 1 or count > len(self.terms):
            raise ValueError(f"count must be in 1..{len(self.terms)}")
        value = fractions.Fraction(self.terms[count - 1])
        for a in reversed(self.terms[:count - 1]):
            value = a + 1 / value
        return value


def cf_expansion(s: QuadraticSurd, terms: int = 12) -> ContinuedFraction:
    """Exact periodic continued fraction of a surd, in closed form.

    x = t - 1/x with 0 < 1/x < 1, so x = [t-1; (1, t-2)]: after t-1 the
    remainder is x/(x-1) = 1 + 1/(x-1), and x-1 = t-2 + (1 - 1/x) has
    the same fraction part as x.  When t = 3, x-1 = x/(x-1): the period is (1).
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    t = s.trace
    preperiod, period = (t - 1,), (1,) if t == 3 else (1, t - 2)
    return ContinuedFraction(preperiod, period,
                             tuple(islice(chain(preperiod, cycle(period)), terms)))
