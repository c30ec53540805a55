"""Small exact integer matrices as tuples of tuples.

Everything here is plain Python integers, so entries never overflow no
matter how long a generator word gets.  Nothing here checks an invariant:
friendliness is checked by `generators.step_core` on every step and by
`tree._replay` once per word, whose product is `generators._word_step`.

`mat_vec` is the one product the package calls (the Pythagorean moves and
the Apollonian correspondence search); the tests' reference product, unit
and determinant live in `tests/oracles.py`.
"""

from __future__ import annotations

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if len(a[0]) != len(v):
        raise ValueError("incompatible shapes")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)
