"""Small exact integer matrices as tuples of tuples.

Everything here is plain Python integers, so entries never overflow no
matter how long a generator word gets.  Nothing here checks an invariant:
friendliness is checked by `generators.step_core` on every step and by
`tree._replay` once per word.  Sizes are tiny (2x2 to 4x4), so naive
algorithms are the right tool.

`mat_vec` is the one the package calls (the Pythagorean moves and the
Apollonian correspondence search).  `mat_mul`, `det` and `identity` are
the reference the tests check the hand-written steps against.
"""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


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


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if len(a[0]) != len(v):
        raise ValueError("incompatible shapes")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


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
