"""Triple tree, Euclid-parameter maps, and the C-branch correspondence."""

import json
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree import intmat, pythagoras
from butterfly_tree.cli import main
from butterfly_tree.errors import InvariantViolation, NotCCell, NotCoprime
from butterfly_tree.pythagoras import (
    H_MATRICES,
    h_MATRICES,
    EuclidPair,
    PythTriple,
    apply_H,
    apply_h,
    cbranch_to_triple,
    euclid_to_triple,
    primitive_triple_oracle,
    triple_tree,
)
from butterfly_tree.tree import ExpansionLimits, expand, node_at
from oracles import functor_holds


def test_frozen_matrices():
    assert H_MATRICES[1] == ((1, -2, 2), (2, -1, 2), (2, -2, 3))
    assert H_MATRICES[2] == ((1, 2, 2), (2, 1, 2), (2, 2, 3))
    assert H_MATRICES[3] == ((-1, 2, 2), (-2, 1, 2), (-2, 2, 3))
    assert h_MATRICES[1] == ((1, 2), (0, 1))
    assert h_MATRICES[2] == ((2, 1), (1, 0))
    assert h_MATRICES[3] == ((2, -1), (1, 0))


def test_euclid_to_triple_both_parity_branches():
    assert euclid_to_triple(EuclidPair(3, 1)) == PythTriple(3, 4, 5)
    assert euclid_to_triple(EuclidPair(2, 1)) == PythTriple(4, 3, 5)
    assert euclid_to_triple(EuclidPair(1, 3)) == PythTriple(3, -4, 5)
    assert euclid_to_triple((1, 1)) == PythTriple(1, 0, 1)


def test_pair_validation():
    with pytest.raises(NotCoprime):
        EuclidPair(2, 4)
    with pytest.raises(NotCoprime):
        EuclidPair(0, 1)
    assert EuclidPair(3, 1).same_parity
    assert not EuclidPair(2, 1).same_parity


def test_triple_validation():
    with pytest.raises(InvariantViolation):
        PythTriple(2, 3, 4)
    with pytest.raises(InvariantViolation):
        PythTriple(6, 8, 10)  # imprimitive
    assert PythTriple(3, -4, 5).leg_set == (3, 4, 5)
    assert PythTriple(3, -4, 5).as_tuple() == (3, -4, 5)


def test_apply_H_reference_values():
    start = PythTriple(3, 4, 5)
    assert apply_H(1, start) == PythTriple(5, 12, 13)
    assert apply_H(2, start) == PythTriple(21, 20, 29)
    assert apply_H(3, start) == PythTriple(15, 8, 17)


def test_apply_H_preserves_entry_parity():
    for triple in (PythTriple(3, 4, 5), PythTriple(5, 12, 13),
                   PythTriple(4, 3, 5)):
        for i in (1, 2, 3):
            out = apply_H(i, triple)
            assert out.a % 2 == triple.a % 2
            assert out.b % 2 == triple.b % 2
            assert out.c % 2 == triple.c % 2


def test_apply_h_reference_values():
    assert apply_h(1, EuclidPair(3, 1)) == EuclidPair(5, 1)
    assert apply_h(2, EuclidPair(3, 1)) == EuclidPair(7, 3)
    assert apply_h(3, EuclidPair(3, 1)) == EuclidPair(5, 3)


@given(st.integers(1, 200), st.integers(1, 200), st.sampled_from([1, 2, 3]))
def test_functoriality(m, n, i):
    """Mapping to a triple commutes with the matching pair/triple moves."""
    if gcd(m, n) != 1:
        return
    assert functor_holds(i, m, n)


def test_functoriality_dense_small_range():
    pairs = [(m, n) for m in range(1, 41) for n in range(1, 41)
             if gcd(m, n) == 1]
    for m, n in pairs:
        for i in (1, 2, 3):
            assert functor_holds(i, m, n), (i, m, n)


def test_functoriality_probes_pairs_that_leave_the_positive_quadrant():
    """h_3 sends (1, 3) to (-1, 1) and h_1 sends (1, -2) to (-3, -2): no
    EuclidPair exists there, yet the raw check still runs and holds."""
    assert intmat.mat_vec(h_MATRICES[3], (1, 3)) == (-1, 1)
    with pytest.raises(NotCoprime):
        EuclidPair(-1, 1)
    assert functor_holds(3, 1, 3)
    assert functor_holds(1, 1, -2)
    assert functor_holds(2, -5, 3)


@pytest.mark.parametrize("move, args, letter", [
    (functor_holds, (0, 3, 1), "h"), (functor_holds, (4, 3, 1), "h"),
    (apply_H, (4, PythTriple(3, 4, 5)), "H"), (apply_h, (0, EuclidPair(3, 1)), "h"),
], ids=["functor_holds-0", "functor_holds-4", "apply_H-4", "apply_h-0"])
def test_moves_reject_an_unknown_index(move, args, letter):
    with pytest.raises(ValueError, match=f"^{letter} index must be 1, 2 or 3, got {args[0]}$"):
        move(*args)


def test_oracle_smallest_cases():
    assert primitive_triple_oracle(5) == {PythTriple(3, 4, 5)}
    seventeen = primitive_triple_oracle(17)
    assert seventeen == {PythTriple(3, 4, 5), PythTriple(5, 12, 13),
                         PythTriple(15, 8, 17)}
    with pytest.raises(ValueError, match="^c_max must be at least 5$"):
        primitive_triple_oracle(4)


def _all_pairs_oracle(c_max):
    """Every leg pair a < b, of either parity: the scan the oracle narrows."""
    found = set()
    for a in range(3, c_max):
        for b in range(a + 1, c_max):
            c = isqrt(a * a + b * b)
            if c > c_max:
                break
            if c * c == a * a + b * b and gcd(a, b) == 1:
                found.add(PythTriple(*((a, b) if a % 2 else (b, a)), c))
    return found


def test_oracle_equals_the_all_pairs_scan():
    # The oracle skips same-parity leg pairs; none of them is primitive.
    # 1000 is the size the benchmark's `views` runs, 1001 the next.
    for c_max in [*range(5, 301), 1000, 1001]:
        assert primitive_triple_oracle(c_max) == _all_pairs_oracle(c_max), c_max


def test_cli_oracle_check_fails_when_the_tree_drops_a_triple(capsys, monkeypatch):
    def dropping(**kwargs):
        return (item for item in triple_tree(**kwargs) if item[1].leg_set != (13, 84, 85))

    monkeypatch.setattr(pythagoras, "triple_tree", dropping)
    assert main(["pyth", "--oracle-cmax", "100"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "cMax": 100, "treeCount": 15, "oracleCount": 16, "match": False}


def test_tree_matches_oracle():
    c_max = 300
    from_tree = [t for _, t in triple_tree(c_max=c_max)]
    oracle = primitive_triple_oracle(c_max)
    assert len(from_tree) == len(set(from_tree))  # each triple exactly once
    assert set(from_tree) == oracle
    # Known census: 47 primitive triples with hypotenuse at most 300.
    assert len(oracle) == 47


def test_tree_depth_truncation():
    rooted = list(triple_tree(max_depth=0))
    assert rooted == [((), PythTriple(3, 4, 5))]
    depth_one = dict(triple_tree(max_depth=1))
    assert depth_one == {(): PythTriple(3, 4, 5),
                         (1,): PythTriple(5, 12, 13),
                         (2,): PythTriple(21, 20, 29),
                         (3,): PythTriple(15, 8, 17)}


def test_tree_rejects_negative_depth():
    with pytest.raises(ValueError, match="max_depth must be non-negative"):
        list(triple_tree(max_depth=-1))
    with pytest.raises(ValueError, match="^need c_max or max_depth, the tree is infinite$"):
        list(triple_tree())
    assert list(triple_tree(c_max=4)) == []  # below the root's hypotenuse


def test_cbranch_reference_values():
    assert cbranch_to_triple(node_at("")) == PythTriple(1, 0, 1)
    assert cbranch_to_triple(node_at("CL")) == PythTriple(3, 4, 5)
    assert cbranch_to_triple(node_at("CL.TR")) == PythTriple(15, 8, 17)
    assert cbranch_to_triple(node_at("CR")) == PythTriple(3, -4, 5)


def test_cbranch_sign_tracks_tail_direction():
    for word in ("CL", "CL.TR", "CR", "CR.TL", "CR.CL"):
        node = node_at(word)
        triple = cbranch_to_triple(node)
        if node.tail_direction == "left":
            assert triple.b < 0
        else:
            assert triple.b > 0


def test_cbranch_rejects_parity_violating_cells():
    with pytest.raises(NotCCell):
        cbranch_to_triple(node_at("UL"))
    with pytest.raises(NotCCell):
        cbranch_to_triple(node_at("CL.UR"))


def test_parity_class_constant_along_c_branches():
    """C and chain steps never change the parity class of (q_R, q_L)."""
    by_word = {}
    for n in expand(ExpansionLimits(4, 4)):
        by_word[n.word] = n
        if not n.word or n.word[-1].cell_class == "E-cell":
            continue
        parent = by_word[n.word[:-1]]
        assert (n.state.q_r - n.state.q_l) % 2 == \
            (parent.state.q_r - parent.state.q_l) % 2, n.word_str
