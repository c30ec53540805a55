"""Exact scaling exponents of generator words and their continued fractions."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree.errors import ParabolicWord
from butterfly_tree.generators import GeneratorKind, canonical_matrices
from butterfly_tree.scaling import (
    QuadraticSurd,
    cf_expansion,
    scaling_exponent,
    word_block,
)
from oracles import mat_mul

K = GeneratorKind


def block_trace(word):
    m = word_block(word)
    return m[0][0] + m[1][1]


def test_word_block_reference_values():
    assert word_block([K.U_L]) == ((1, 1), (1, 2))
    assert word_block([K.C_L, K.C_R]) == ((5, 2), (2, 1))
    assert block_trace([K.C_L]) == 2
    with pytest.raises(ValueError, match="^word must be nonempty$"):
        word_block([])


def mat_mul_block(word):
    """The oracle: a left-to-right `mat_mul` fold of the canonical blocks."""
    out = canonical_matrices(word[0]).two_by_two
    for kind in word[1:]:
        out = mat_mul(out, canonical_matrices(kind).two_by_two)
    return out


def test_word_block_matches_a_mat_mul_fold():
    # Letters are drawn from all eight kinds, so chain letters land against
    # the tail too: word_block ignores tail preconditions.
    rng = random.Random(8)
    kinds = list(K)
    words = [[K.C_CL] * 5 + [K.C_CR] * 7, [K.C_CR, K.C_L, K.C_CL, K.C_R]]
    words += [rng.choices(kinds, k=rng.randint(1, 300)) for _ in range(150)]
    # Around powers of two, so an odd pair out moves up at several levels.
    words += [rng.choices(kinds, k=n) for n in (1, 2, 3, 15, 16, 17, 31, 33)]
    for word in words:
        assert word_block(word) == mat_mul_block(word)
    long_word = rng.choices(kinds, k=10_000)
    block = mat_mul_block(long_word)
    assert word_block(long_word) == block
    assert (block[0][0] + block[1][1]).bit_length() > 5_000


def test_exponent_reference_values():
    golden_like = scaling_exponent([K.U_L])
    assert (golden_like.trace, golden_like.discriminant) == (3, 5)
    assert abs(golden_like.value - (3 + math.sqrt(5)) / 2) < 1e-12

    silver_like = scaling_exponent([K.C_L, K.C_R])
    assert (silver_like.trace, silver_like.discriminant) == (6, 32)
    assert abs(silver_like.value - (3 + 2 * math.sqrt(2))) < 1e-12


def test_parabolic_words_rejected():
    for word in ([K.C_L], [K.C_R, K.C_R], [K.C_CL], [K.C_CL, K.C_CR]):
        with pytest.raises(ParabolicWord):
            scaling_exponent(word)


def test_negative_trace_word_uses_eigenvalue_magnitude():
    word = [K.C_L, K.C_L, K.C_L, K.C_CL]
    assert word_block(word) == ((-6, 13), (-1, 2))
    assert block_trace(word) == -4
    assert scaling_exponent(word).trace == 4


def test_surd_validation_and_power():
    with pytest.raises(ValueError):
        QuadraticSurd(2)
    s = QuadraticSurd(3)
    assert s.power(1).trace == 3
    assert s.power(2).trace == 7
    assert s.power(3).trace == 18
    with pytest.raises(ValueError):
        s.power(0)
    assert s.value == (3 + 5 ** 0.5) / 2
    assert QuadraticSurd(2 ** 1100).value == math.inf  # the square root overflows a float


def test_power_matches_word_repetition():
    for word in ([K.U_L], [K.C_L, K.C_R], [K.U_R, K.D_L]):
        base = scaling_exponent(word)
        for k in range(1, 6):
            assert scaling_exponent(word * k).trace == base.power(k).trace
            assert abs(scaling_exponent(word * k).value
                       - base.value ** k) < 1e-10 * base.value ** k


@given(st.lists(st.sampled_from(list(K)), min_size=1, max_size=6),
       st.integers(0, 5))
def test_trace_invariant_under_rotation(word, shift):
    rotated = word[shift % len(word):] + word[:shift % len(word)]
    assert block_trace(rotated) == block_trace(word)


@given(st.lists(st.sampled_from(list(K)), min_size=1, max_size=6))
def test_blocks_are_unimodular(word):
    m = word_block(word)
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_cf_reference_expansions():
    golden_like = cf_expansion(scaling_exponent([K.U_L]))
    assert (golden_like.preperiod, golden_like.period) == ((2,), (1,))

    silver_like = cf_expansion(scaling_exponent([K.C_L, K.C_R]))
    assert (silver_like.preperiod, silver_like.period) == ((5,), (1, 4))

    assert (cf_expansion(QuadraticSurd(4)).preperiod,
            cf_expansion(QuadraticSurd(4)).period) == ((3,), (1, 2))


def _above(t, a, b):
    """Whether (t + sqrt(t^2 - 4))/2 > a/b, for b > 0, on integers: t^2 - 4 is no square."""
    m = 2 * a - t * b
    return m < 0 or b * b * (t * t - 4) > m * m


def _bracketed(t, terms):
    """Whether the surd of trace t lies strictly between each convergent of
    `terms` and its mediant with the one before: the complete quotient that
    would follow is > 1, so these are the surd's own partial quotients."""
    (p, q), (p_prev, q_prev) = (terms[0], 1), (1, 0)
    for a in terms[1:] + (None,):
        if _above(t, p, q) == _above(t, p + p_prev, q + q_prev):
            return False
        if a is not None:
            (p, q), (p_prev, q_prev) = (a * p + p_prev, a * q + q_prev), (p, q)
    return True


def test_cf_expansion_brackets_the_surd():
    rng = random.Random(20)
    traces = list(range(3, 2001)) + [rng.getrandbits(bits) | 1 << (bits - 1)
                                     for bits in (64, 1000, 5000) for _ in range(5)]
    for t in traces:
        cf = cf_expansion(QuadraticSurd(t), terms=7)
        assert _bracketed(t, cf.terms), t
        assert cf.terms == (cf.preperiod + cf.period * 6)[:7]
    # The oracle rejects a wrong quotient anywhere, the last one too.
    assert not _bracketed(10, (9, 1, 8, 1, 7))
    assert not _bracketed(10, (9, 2, 8))
    assert _bracketed(10, (9, 1, 8, 1, 8))


def test_cf_terms_materialization():
    cf = cf_expansion(QuadraticSurd(6), terms=9)
    assert cf.terms == (5, 1, 4, 1, 4, 1, 4, 1, 4)
    assert len(cf_expansion(QuadraticSurd(6), terms=20).terms) == 20
    for trace in (3, 4, 7, 10**30):
        preperiod, period = (trace - 1,), (1,) if trace == 3 else (1, trace - 2)
        for terms in (1, 2, 3, 7, 8, 10**6):
            want = (preperiod + period * terms)[:terms]
            assert cf_expansion(QuadraticSurd(trace), terms) == (preperiod, period, want)
    with pytest.raises(ValueError, match="^terms must be >= 1$"):
        cf_expansion(QuadraticSurd(3), 0)


def test_cf_expansion_builds_only_its_terms():
    # A million terms are one tuple of about 8 MB; no longer list comes first.
    tracemalloc.start()
    try:
        cf_expansion(QuadraticSurd(10**30), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000, peak


def test_cf_convergents_approach_the_surd():
    for trace in (3, 4, 6, 11):
        s = QuadraticSurd(trace)
        cf = cf_expansion(s, terms=30)
        errors = [abs(float(cf.convergent(k)) - s.value) for k in (6, 15, 30)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-9
    with pytest.raises(ValueError):
        cf.convergent(0)
    with pytest.raises(ValueError):
        cf.convergent(31)
