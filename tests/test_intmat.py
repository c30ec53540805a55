"""The package's `mat_vec` and the tests' reference product, unit and determinant."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree import intmat
from oracles import det, identity, mat_mul

entries = st.integers(-9, 9)


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: tuple(tuple(r) for r in rows))


def test_identity_and_shapes():
    assert identity(2) == ((1, 0), (0, 1))
    assert mat_mul(identity(3), identity(3)) == identity(3)
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1, 2),))
    with pytest.raises(ValueError):
        intmat.mat_vec(((1, 2), (3, 4)), (1, 2, 3))


def test_reference_products():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert intmat.mat_vec(a, (1, 1)) == (3, 7)
    assert det(a) == -2
    assert det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert det(((0, 1, 0, 0), (1, 0, 0, 0),
                (0, 0, 0, 1), (0, 0, 1, 0))) == 1


@given(square(3), square(3))
def test_det_is_multiplicative(a, b):
    assert det(mat_mul(a, b)) == det(a) * det(b)


@given(square(4))
def test_det_is_fixed_by_transposition(a):
    assert det(tuple(zip(*a))) == det(a)
