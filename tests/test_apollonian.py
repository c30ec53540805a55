"""Descartes quadruples, the reflection group, Ford quadruples, intertwiners."""

import itertools
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree import apollonian, intmat
from butterfly_tree.apollonian import (
    S_MATRICES,
    DescartesQuadruple,
    adjoint_S,
    apply_A,
    apply_S,
    correspondence_search,
    ford_quadruple,
    super_orbit,
    triple_to_quadruple,
)
from butterfly_tree.errors import InvariantViolation
from butterfly_tree.pythagoras import PythTriple, euclid_to_triple
from butterfly_tree.tree import ExpansionLimits, expand, node_at
from oracles import det


def descartes_holds(ks):
    return 2 * sum(k * k for k in ks) == sum(ks) ** 2


def test_frozen_reflection_matrices():
    assert S_MATRICES[1] == ((-1, 2, 2, 2), (0, 1, 0, 0),
                             (0, 0, 1, 0), (0, 0, 0, 1))
    assert S_MATRICES[2] == ((1, 0, 0, 0), (2, -1, 2, 2),
                             (0, 0, 1, 0), (0, 0, 0, 1))
    assert S_MATRICES[3] == ((1, 0, 0, 0), (0, 1, 0, 0),
                             (2, 2, -1, 2), (0, 0, 0, 1))
    assert S_MATRICES[4] == ((1, 0, 0, 0), (0, 1, 0, 0),
                             (0, 0, 1, 0), (2, 2, 2, -1))


def test_apply_reference_values():
    assert apply_S(1, (-1, 2, 2, 3)) == (15, 2, 2, 3)
    assert apply_S(4, (1, 1, 4, 0)) == (1, 1, 4, 12)
    assert apply_A(1, (-1, 2, 2, 3)) == (1, 0, 0, 1)
    assert apply_A(2, (1, 1, 4, 0)) == (3, -1, 6, 2)


def test_reflections_are_involutions():
    seeds = ((-1, 2, 2, 3), (1, 1, 4, 0), (0, 0, 1, 1))
    for seed in seeds:
        for i in (1, 2, 3, 4):
            assert apply_S(i, apply_S(i, seed)) == seed


def test_quadruple_validation():
    with pytest.raises(InvariantViolation):
        DescartesQuadruple(1, 2, 3, 4)
    assert DescartesQuadruple(-1, 2, 2, 3) == (-1, 2, 2, 3)


def test_adjoints_are_transposes_with_unit_absolute_determinant():
    for i in (1, 2, 3, 4):
        adj = adjoint_S(i)
        assert adj == tuple(tuple(row[col] for row in S_MATRICES[i]) for col in range(4))
        assert det(S_MATRICES[i]) == -1
        assert det(adj) == -1
    assert adjoint_S(1) == ((-1, 0, 0, 0), (2, 1, 0, 0),
                            (2, 0, 1, 0), (2, 0, 0, 1))


def test_index_validation():
    for bad in (0, 5):
        with pytest.raises(ValueError):
            apply_S(bad, (-1, 2, 2, 3))
        with pytest.raises(ValueError):
            adjoint_S(bad)
        with pytest.raises(ValueError, match=f"^S index must be 1..4, got {bad}$"):
            apply_A(bad, (-1, 2, 2, 3))


@pytest.mark.parametrize("apply, quad, message", [
    (lambda q: apply_S(1, q), (1, 2, 3), "needs 4 curvatures, got 3"),
    (lambda q: apply_A(1, q), (1, 2, 3), "needs 4 curvatures, got 3"),
    (lambda q: apply_S(1, q), [1, "a", 2, 3], "curvature 2 is not an integer: 'a'"),
    (lambda q: super_orbit(q, 1), (-1, 2, 2, 3, 0), "needs 4 curvatures, got 5"),
], ids=["S-short", "adjoint-short", "S-non-int", "orbit-long"])
def test_malformed_quadruples_raise_value_error(apply, quad, message):
    with pytest.raises(ValueError, match=message):
        apply(quad)


def test_orbit_counts_and_identity():
    seed = (-1, 2, 2, 3)
    assert [len(super_orbit(seed, d)) for d in range(4)] == [1, 8, 42, 212]
    for quad in super_orbit(seed, 3):
        assert all(isinstance(k, int) for k in quad)
        assert descartes_holds(quad)


def test_super_orbit_rejects_a_negative_depth():
    # A negative depth once returned the seed alone, as depth 0 does.
    with pytest.raises(ValueError, match="^depth must be non-negative, got -5$"):
        super_orbit((-1, 2, 2, 3), -5)


@given(st.lists(st.sampled_from([1, 2, 3, 4]), max_size=6),
       st.booleans())
def test_words_preserve_identity(word, use_adjoint):
    cur = DescartesQuadruple(-1, 2, 2, 3)
    for i in word:
        cur = (apply_A if use_adjoint else apply_S)(i, cur)
        assert descartes_holds(cur)


@given(st.sampled_from([(-1, 2, 2, 3), (1, 9, 16, 0), (0, 0, 1, 1), (1, 1, 4, 0)]),
       st.lists(st.tuples(st.sampled_from("SA"), st.sampled_from([1, 2, 3, 4])),
                max_size=8))
def test_closed_forms_equal_the_matrices(seed, word):
    """apply_S and apply_A on mixed words equal mat_vec with S_i and its transpose."""
    cur = want = seed
    for move, i in word:
        matrix = S_MATRICES[i] if move == "S" else adjoint_S(i)
        cur = (apply_S if move == "S" else apply_A)(i, cur)
        want = intmat.mat_vec(matrix, want)
        assert cur == want


def _matrix_orbit(seed, depth):
    """The orbit by breadth-first search through S_MATRICES, their zip
    transposes and intmat.mat_vec."""
    moves = [S_MATRICES[i] for i in (1, 2, 3, 4)]
    moves += [tuple(zip(*S_MATRICES[i])) for i in (1, 2, 3, 4)]
    seen, level = {seed}, [seed]
    for _ in range(depth):
        level = [new for quad in level for new in (intmat.mat_vec(m, quad) for m in moves)]
        level = list(dict.fromkeys(new for new in level if new not in seen))
        seen.update(level)
    return seen


@pytest.mark.parametrize("seed, sizes", [
    ((-1, 2, 2, 3), [1, 8, 42, 212, 1062, 5312]),
    ((1, 9, 16, 0), [1, 8, 45, 232, 1166, 5836]),
    ((0, 0, 1, 1), [1, 5, 25, 125, 625, 3125]),
])
def test_super_orbit_equals_the_matrix_search(seed, sizes):
    for depth, size in enumerate(sizes):
        orbit = super_orbit(seed, depth)
        assert orbit == _matrix_orbit(seed, depth)
        assert len(orbit) == size


def test_super_orbit_checks_every_new_quadruple(monkeypatch):
    # A move that breaks the identity: the orbit raises as the quadruple does.
    monkeypatch.setattr(apollonian, "_MOVES",
                        apollonian._MOVES + [(lambda i, q: q[:3] + (q[3] + i,), 1)])
    with pytest.raises(InvariantViolation,
                       match=r"^Descartes identity fails for \(-1, 2, 2, 4\)$"):
        super_orbit((-1, 2, 2, 3), 1)


def test_ford_quadruple_reference_values():
    assert ford_quadruple(node_at("").state) == (1, 1, 4, 0)
    assert ford_quadruple(node_at("UL").state) == (9, 4, 25, 0)


def test_ford_quadruple_every_node():
    for n in expand(ExpansionLimits(3, 3)):
        quad = ford_quadruple(n.state)
        s = n.state
        assert quad == (s.q_l ** 2, s.q_r ** 2, s.q_c ** 2, 0)
        assert descartes_holds(quad)


def test_triple_bridge_reference_values():
    assert triple_to_quadruple(PythTriple(3, 4, 5)) == (1, 9, 16, 0)
    assert triple_to_quadruple(PythTriple(5, 12, 13)) == (1, 25, 36, 0)
    assert triple_to_quadruple(PythTriple(3, -4, 5)) == (9, 1, 16, 0)


def test_triple_bridge_equals_pair_ford_on_same_parity_pairs():
    for m, n in ((3, 1), (5, 3), (7, 5), (5, 1), (9, 7)):
        assert gcd(m, n) == 1 and (m - n) % 2 == 0
        bridged = triple_to_quadruple(euclid_to_triple((m, n)))
        assert bridged == (n * n, m * m, (m + n) ** 2, 0)


def test_correspondence_search_frozen_results():
    expected = {
        "h1": (((2, 3), (0, 1, 2, 3)),),
        "h2": (((1, 3), (1, 0, 2, 3)),),
        "h3": (((3, 1, 3), (1, 0, 2, 3)),),
        "U_L": (((2, 1), (2, 0, 1, 3)),),
        "U_R": (((1, 2), (1, 2, 0, 3)),),
    }
    for step, matches in expected.items():
        report = correspondence_search(step)
        assert report.step == step
        assert report.matches
        assert report.pairs_tested > 20
        assert report.matches == matches


def test_correspondence_search_accepts_integer_index():
    assert correspondence_search(1) == correspondence_search("h1")
    with pytest.raises(ValueError):
        correspondence_search("h4")


def test_h1_intertwiner_on_the_smallest_pair():
    """The found word sends the (3,1)-pair quadruple to the (5,1) one."""
    word, perm = correspondence_search("h1").matches[0]
    cur = DescartesQuadruple(1, 9, 16, 0)
    for i in word:
        cur = apply_S(i, cur)
    assert perm == (0, 1, 2, 3)
    assert cur == (1, 25, 36, 0)


# The five pair moves, written out independently of h_MATRICES and of the
# generator matrices that correspondence_search takes them from.
_ORACLE_MOVES = {
    "h1": ((1, 2), (0, 1)),
    "h2": ((2, 1), (1, 0)),
    "h3": ((2, -1), (1, 0)),
    "U_L": ((1, 1), (1, 2)),
    "U_R": ((2, 1), (1, 1)),
}


def _search_oracle(step, max_word_length, pair_bound):
    """The search replayed word by word from scratch through S_MATRICES."""
    def ford(m, n):
        return (n * n, m * m, (m + n) ** 2, 0)

    pairs = [(m, n) for m in range(2, pair_bound + 1)
             for n in range(1, m) if gcd(m, n) == 1]
    sources = [ford(m, n) for m, n in pairs]
    targets = [ford(*intmat.mat_vec(_ORACLE_MOVES[step], pair)) for pair in pairs]
    matches = []
    for length in range(1, max_word_length + 1):
        for word in itertools.product((1, 2, 3, 4), repeat=length):
            outputs = []
            for cur in sources:
                for i in word:
                    cur = intmat.mat_vec(S_MATRICES[i], cur)
                outputs.append(cur)
            for perm in itertools.permutations(range(4)):
                if all(out == tuple(tgt[p] for p in perm)
                       for out, tgt in zip(outputs, targets)):
                    matches.append((word, perm))
    return len(pairs), tuple(matches)


@pytest.mark.parametrize("step", sorted(_ORACLE_MOVES))
@pytest.mark.parametrize("max_word_length, pair_bound", [(3, 12), (4, 8)])
def test_correspondence_search_equals_word_by_word_replay(step, max_word_length,
                                                          pair_bound):
    if (max_word_length, pair_bound) == (3, 12):
        report = correspondence_search(step)
    else:
        report = correspondence_search(step, max_word_length, pair_bound)
    assert (report.step, report.max_word_length) == (step, max_word_length)
    assert (report.pairs_tested, report.matches) == _search_oracle(
        step, max_word_length, pair_bound)


@pytest.mark.parametrize("max_word_length, pair_bound", [(3, 12), (4, 8)])
def test_one_search_of_the_five_moves_equals_five_searches(max_word_length, pair_bound):
    # The CLI searches all five moves at once, over S-words computed once.
    steps = ("h1", "h2", "h3", "U_L", "U_R")
    assert apollonian._correspondence_searches(steps, max_word_length, pair_bound) == [
        correspondence_search(step, max_word_length, pair_bound) for step in steps]


def test_search_oracle_is_not_vacuous():
    """The oracle finds the frozen h3 word, and nothing once words are too
    short to hold it."""
    _, matches = _search_oracle("h3", 3, 12)
    assert matches == (((3, 1, 3), (1, 0, 2, 3)),)
    _, shorter = _search_oracle("h3", 2, 12)
    assert shorter == ()


@pytest.mark.parametrize("kwargs, message", [
    ({"pair_bound": 1}, "pair_bound must be at least 2, got 1"),
    ({"pair_bound": 0}, "pair_bound must be at least 2, got 0"),
    ({"max_word_length": 0}, "max_word_length must be at least 1, got 0"),
    ({"max_word_length": -2}, "max_word_length must be at least 1, got -2"),
])
def test_correspondence_search_rejects_vacuous_searches(kwargs, message):
    """pair_bound 1 tests no pair, and every word would match vacuously."""
    with pytest.raises(ValueError, match=message):
        correspondence_search("h1", **kwargs)


def test_correspondence_search_smallest_valid_bounds():
    report = correspondence_search("h1", max_word_length=1, pair_bound=2)
    assert report.pairs_tested == 1
    assert report.matches == _search_oracle("h1", 1, 2)[1]


def test_correspondence_search_unknown_step_message():
    with pytest.raises(ValueError, match="unknown step 4"):
        correspondence_search(4)
    with pytest.raises(ValueError, match="unknown step 'D_L'"):
        correspondence_search("D_L")
