"""Acceptance gate: ten criteria, one pass/fail line each under pytest -v.

Every test is self-contained (frozen expectations inline) and asserts its
own wall-clock budget where one applies.  The deep tree sweep is shared
through a module-level cache so the suite stays fast, but each criterion
makes its own assertions against it.
"""

import itertools
import time
from fractions import Fraction
from math import gcd

import pytest

from butterfly_tree import tree
from butterfly_tree.apollonian import (
    apply_S,
    correspondence_search,
    ford_quadruple,
    super_orbit,
)
from butterfly_tree.diophantine import (
    band_cherns,
    gap_labels,
    hierarchy_gap_cherns,
)
from butterfly_tree.errors import ParabolicWord
from butterfly_tree.generators import (
    ButterflyLabel,
    GeneratorKind,
    apply_label,
    apply_state,
)
from butterfly_tree.pythagoras import (
    primitive_triple_oracle,
    triple_tree,
)
from butterfly_tree.scaling import scaling_exponent, word_block
from butterfly_tree.skeleton import cell_geometry, render_svg
from oracles import functor_holds, gap_label_oracle

K = GeneratorKind

# The sixteen reference applications of the eight generators: one then a
# second application for each of the six babies, plus the four chain rows.
APPLICATIONS = (
    (K.U_L, (1, 1, 0), (2, 3, -1)),
    (K.U_L, (2, 3, -1), (5, 8, -3)),
    (K.U_R, (1, 1, 0), (3, 2, 1)),
    (K.U_R, (2, 3, -1), (7, 5, 2)),
    (K.D_L, (1, 1, 0), (2, 3, 1)),
    (K.D_L, (2, 3, -1), (5, 8, 1)),
    (K.D_R, (1, 1, 0), (3, 2, -1)),
    (K.D_R, (2, 3, -1), (7, 5, -4)),
    (K.C_L, (1, 1, 0), (3, 1, 0)),
    (K.C_L, (2, 3, -1), (8, 3, -1)),
    (K.C_R, (1, 1, 0), (1, 3, 0)),
    (K.C_R, (2, 3, -1), (2, 7, -1)),
    (K.C_CR, (3, 1, 0), (5, 3, 0)),
    (K.C_CL, (1, 3, 0), (3, 5, 0)),
    (K.C_CL, (2, 7, -1), (7, 12, -1)),
    (K.C_CR, (8, 3, -1), (13, 8, -1)),
)

_SWEEP: dict = {}


def deep_sweep():
    """Depth-5, chain-cap-6 expansion with a word -> node lookup, cached."""
    if "nodes" not in _SWEEP:
        nodes = list(tree.expand(tree.ExpansionLimits(max_depth=5, chain_cap=6)))
        _SWEEP["nodes"] = nodes
        _SWEEP["by_word"] = {node.word: node for node in nodes}
    return _SWEEP["nodes"], _SWEEP["by_word"]


def test_criterion_01_application_table():
    start = time.monotonic()
    assert len(APPLICATIONS) == 16
    for kind, source, expected in APPLICATIONS:
        got = apply_label(kind, ButterflyLabel(*source))
        assert got == expected, (kind, source)
    assert time.monotonic() - start < 1.0


def test_criterion_02_worked_example():
    infant = apply_state(K.U_L, tree.root().state)
    assert (infant.left, infant.center, infant.right) == (
        Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))
    assert (infant.sigma_plus, infant.sigma_minus) == (2, 3)
    assert hierarchy_gap_cherns(-1, 3, 1) == 2
    assert hierarchy_gap_cherns(-1, 2, -1) == -3
    assert (infant.sigma_plus, -infant.sigma_minus) == (2, -3)


def test_criterion_03_invariant_sweep():
    start = time.monotonic()
    nodes, by_word = deep_sweep()
    assert len(nodes) == 16807
    assert len(nodes) >= 15000
    failures = []
    for node in nodes:
        parent = by_word.get(node.word[:-1]) if node.word else None
        report = tree.verify_node(node, parent)
        if not report.ok:
            failures.append(report)
        state = node.state
        assert (state.left.numerator * state.right.denominator
                - state.right.numerator * state.left.denominator) == -1
        assert state.sigma_plus + state.sigma_minus == state.q_c
        assert state.right - state.left == Fraction(1, state.q_l * state.q_r)
        if state.q_r > state.q_l:
            assert node.tail_direction == "right"
        elif state.q_l > state.q_r:
            assert node.tail_direction == "left"
        if parent is not None and node.word[-1] in (K.C_CL, K.C_CR):
            assert state.delta_sigma == parent.state.delta_sigma
    assert failures == []
    assert time.monotonic() - start < 30.0


def test_criterion_04_label_uniqueness():
    nodes = list(tree.expand(tree.ExpansionLimits(max_depth=4, chain_cap=8)))
    assert len(nodes) == 2401
    labels = [node.label for node in nodes]
    assert len(set(labels)) == len(labels)


def test_criterion_05_pythagorean_tree():
    start = time.monotonic()
    want = sorted(t.leg_set for t in primitive_triple_oracle(1000))
    got = sorted(t.leg_set for _, t in triple_tree(c_max=1000))
    assert len(want) == 158
    assert got == want
    assert len(set(got)) == len(got)

    pairs = []
    m = 2
    while len(pairs) < 1000:
        for n in range(1, m):
            if gcd(m, n) == 1:
                pairs.append((m, n))
                if len(pairs) == 1000:
                    break
        m += 1
    for m, n in pairs:
        for i in (1, 2, 3):
            assert functor_holds(i, m, n)
    assert time.monotonic() - start < 10.0


def test_criterion_06_diophantine_oracle():
    for q in range(2, 51):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            sigma = {0: 0, q: 0}
            for g in gap_labels(p, q):
                assert gap_label_oracle(p, q, g.r) == [(g.sigma, g.tau)]
                sigma[g.r] = g.sigma
            bands = band_cherns(p, q)
            assert len(bands) == q
            for band in bands:
                assert p * band.chern + q * band.m == 1
                assert band.chern == sigma[band.index] - sigma[band.index - 1]
            assert sum(band.chern for band in bands) == 0


def test_criterion_07_apollonian_correspondences():
    orbit = super_orbit((-1, 2, 2, 3), 6)
    assert len(orbit) == 26562
    for quad in orbit:
        assert 2 * sum(k * k for k in quad) == sum(quad) ** 2

    nodes, _ = deep_sweep()
    for node in nodes:
        state = node.state
        assert ford_quadruple(state) == (
            state.q_l ** 2, state.q_r ** 2, state.q_c ** 2, 0)

    report = correspondence_search("h1")
    assert report.matches
    word, perm = report.matches[0]
    current = (1, 9, 16, 0)
    for i in word:
        current = apply_S(i, current)
    target = (1, 25, 36, 0)
    assert current == tuple(target[p] for p in perm)


def test_criterion_08_scaling_exponents():
    start = time.monotonic()
    golden = scaling_exponent([K.U_L])
    assert (golden.trace, golden.discriminant) == (3, 5)
    assert abs(golden.value - (3 + 5 ** 0.5) / 2) < 1e-12
    paired = scaling_exponent([K.C_L, K.C_R])
    assert (paired.trace, paired.discriminant) == (6, 32)
    assert abs(paired.value - (3 + 2 * 2 ** 0.5)) < 1e-12

    hyperbolic = 0
    for length in range(1, 5):
        for word in itertools.product(tuple(K), repeat=length):
            block = word_block(word)
            trace = block[0][0] + block[1][1]
            if abs(trace) < 3:
                with pytest.raises(ParabolicWord):
                    scaling_exponent(word)
                continue
            surd = scaling_exponent(word)
            family_index = surd.trace - 1
            assert surd.trace == abs(trace)
            assert family_index >= 2
            assert surd.discriminant == (family_index + 1) ** 2 - 4
            assert abs(surd.value - (family_index + 1
                                     + surd.discriminant ** 0.5) / 2) < 1e-12
            hyperbolic += 1
    assert hyperbolic > 0
    assert time.monotonic() - start < 5.0


def test_criterion_09_renderer():
    base = cell_geometry(tree.root())
    assert base.center == (Fraction(1, 2), Fraction(1, 2))
    assert (base.slope_plus, base.slope_minus) == (1, -1)
    infant = cell_geometry(tree.node_at("UL"))
    assert infant.center == (Fraction(2, 5), Fraction(4, 5))
    assert (infant.slope_plus, infant.slope_minus) == (2, -3)

    limits = tree.ExpansionLimits(max_depth=2, chain_cap=1)
    first = render_svg(tree.expand(limits))
    second = render_svg(tree.expand(limits))
    assert first.encode("utf-8") == second.encode("utf-8")


def test_criterion_10_parity_dichotomy():
    nodes, by_word = deep_sweep()
    central_steps = 0
    edge_steps = 0
    for node in nodes:
        if not node.word:
            continue
        parent = by_word[node.word[:-1]]
        last = node.word[-1]
        if last in (K.C_L, K.C_R, K.C_CL, K.C_CR):
            assert (node.state.q_c - parent.state.q_c) % 2 == 0
            central_steps += 1
        else:
            left_kind = last in (K.U_L, K.D_L)
            side = parent.state.q_l if left_kind else parent.state.q_r
            assert node.state.q_c == 2 * parent.state.q_c + side
            edge_steps += 1
    assert central_steps and edge_steps
