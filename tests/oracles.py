"""Reference code that only the tests call: an independent route for each
result the package computes another way.

The matrix product, unit and determinant check the hand-written generator
steps and the balanced word product; `gap_label_oracle` scans the sigma
window that `gap_rows` steps through; `functor_holds` checks that the pair
and triple moves of the Pythagorean tree commute on raw integers;
`decimal9` rounds an exact rational to 9 decimals by `Fraction` arithmetic,
the rule the SVG writer's `_fixed9` follows on integers; `centre` reduces a
cell's centre by `Fraction`; `stepped_chain` steps every chain member,
where `tree.chain_cores` steps the first and adds, and `chain_apex` steps
the first two, where the skeleton takes a tail's constant step; `chain_run`
counts a word's trailing chain letters, which `tree.walk` carries along
from the parent.

Not named `reference`: `perfbench/reference.py` holds that top-level name,
and one pytest run over `tests` and `perfbench` imports both.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

from butterfly_tree.diophantine import _require_coprime
from butterfly_tree.errors import NoTail, NotCoprime
from butterfly_tree.generators import step_core, tail_generator
from butterfly_tree.intmat import Matrix, mat_vec
from butterfly_tree.pythagoras import H_MATRICES, _triple, h_MATRICES
from butterfly_tree.tree import Word


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("incompatible shapes")
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in cols)
        for row in a
    )


def det(a: Matrix) -> int:
    """Cofactor expansion; fine for the n <= 4 sizes used here."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    for j, pivot in enumerate(a[0]):
        if pivot == 0:
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        total += (-1) ** j * pivot * det(minor)
    return total


def gap_label_oracle(p: int, q: int, r: int) -> list[tuple[int, int]]:
    """Brute-force solutions of p*sigma + q*tau = r with sigma in (-q/2, q/2].

    Independent of `gap_rows`: scans the sigma window directly, so it is the
    oracle for uniqueness and agreement.
    """
    _require_coprime(p, q)
    out = []
    for sigma in range(-q, q + 1):
        if not (-q < 2 * sigma <= q):
            continue
        num = r - p * sigma
        if num % q == 0:
            out.append((sigma, num // q))
    return out


def functor_holds(i: int, m: int, n: int) -> bool:
    """Raw-integer check that triple(h_i(m,n)) = H_i(triple(m,n)).

    Works directly on matrix arithmetic so it can probe pairs whose h_i
    image leaves the positive quadrant (where EuclidPair would reject).
    """
    if i not in h_MATRICES:
        raise ValueError(f"h index must be 1, 2 or 3, got {i}")
    if gcd(m, n) != 1:
        raise NotCoprime(f"({m}, {n}) is not coprime")
    stepped = mat_vec(h_MATRICES[i], (m, n))
    return _triple(*stepped) == mat_vec(H_MATRICES[i], _triple(m, n))


def decimal9(x: Fraction) -> str:
    """Fixed 9-decimal string of an exact rational: |x| * 10^9 rounded half
    away from zero, with the sign of x, so a tiny negative reads -0.000000000."""
    units = floor(abs(x) * 10 ** 9 + Fraction(1, 2))
    return f"{'-' if x < 0 else ''}{units // 10 ** 9}.{units % 10 ** 9:09d}"


def centre(core: tuple[int, ...]) -> tuple[int, int, int]:
    """(p_c, q_c, r_c) of a core with q_L + q_R > 0 and slopes that agree: the
    mediant of its edges as a Fraction reduces it, and r_c = sigma_+ p_c mod q_c."""
    q_r, q_l, s_p, _, p_r, p_l = core
    phi = Fraction(p_l + p_r, q_l + q_r)
    return phi.numerator, phi.denominator, s_p * phi.numerator % phi.denominator


def stepped_chain(core: tuple[int, ...], steps: int, word: Word = ()) -> list[tuple[int, ...]]:
    """The first `steps` chain members below `core`, each stepped and checked
    by `step_core` in turn, where `tree.chain_cores` steps the first and adds;
    NoTail, naming `word`, as it raises, when there is no tail."""
    kind = tail_generator(core[0], core[1])
    if kind is None:
        raise NoTail(f"{'.'.join(letter.token for letter in word) or 'root'} has no tail")
    members = []
    for _ in range(steps):
        core = step_core(kind, core)
        members.append(core)
    return members


def chain_apex(core: tuple[int, ...], word: Word) -> tuple[int, int, int]:
    """(p, q, r): the tail apex (p/q, r/q) as the difference of the centres of
    chain members 2 and 1, each stepped and checked by `stepped_chain`."""
    first, second = stepped_chain(core, 2, word)
    (p1, q1, r1), (p2, q2, r2) = centre(first), centre(second)
    return p2 - p1, q2 - q1, r2 - r1


def chain_run(word: Word) -> int:
    """Number of consecutive chain letters ending the word."""
    run = 0
    for kind in reversed(word):
        if not kind.is_chain:
            break
        run += 1
    return run
