"""Octonary tree expansion, addressing, verification, and export round trips."""

import csv
import dataclasses
import io
import json
from fractions import Fraction

import pytest

from butterfly_tree.errors import (
    InvariantViolation,
    MalformedRecord,
    NoTail,
    TailDirectionMismatch,
)
from butterfly_tree import tree
from butterfly_tree.farey import stern_brocot_friendly_triplets
from butterfly_tree.generators import GeneratorKind
from butterfly_tree.tree import (
    RECORD_FIELDS,
    ExpansionLimits,
    chain,
    child,
    children,
    expand,
    expand_rows,
    node_at,
    node_from_record,
    node_record,
    node_row,
    parse_word,
    read_csv,
    read_jsonl,
    root,
    verify_node,
    walk,
    word_string,
    write_csv,
    write_jsonl,
)

K = GeneratorKind


def labels(nodes):
    return [n.label.as_tuple() for n in nodes]


def test_root_node():
    r = root()
    assert r.label.as_tuple() == (1, 1, 0)
    assert (r.state.left, r.state.center, r.state.right) == (
        Fraction(0), Fraction(1, 2), Fraction(1))
    assert (r.state.sigma_plus, r.state.sigma_minus) == (1, 1)
    assert r.word == () and r.depth == 0
    assert r.cell_class == "root" and r.tail_direction == "none"


def test_children_of_root():
    kids = children(root())
    assert labels(kids) == [(3, 1, 0), (1, 3, 0), (2, 3, -1), (3, 2, 1),
                            (2, 3, 1), (3, 2, -1)]
    assert [k.word[-1] for k in kids] == list(K)[:6]
    assert all(len(k.word) == 1 for k in kids)  # no chain successor at root


def test_children_include_chain_successor():
    infant = node_at("UL")
    kids = children(infant)
    assert len(kids) == 7
    tail = kids[-1]
    assert tail.word[-1] is K.C_CL
    assert tail.label.as_tuple() == (3, 4, -1)
    assert (tail.state.left, tail.state.center, tail.state.right) == (
        Fraction(1, 4), Fraction(2, 7), Fraction(1, 3))
    assert (tail.state.sigma_plus, tail.state.sigma_minus) == (3, 4)

    lower = node_at("CL")
    assert labels(children(lower))[-1] == (5, 3, 0)


def test_chain_reference_walks():
    lower = node_at("CL")
    walk = chain(lower, 2)
    assert labels(walk) == [(5, 3, 0), (7, 5, 0)]
    assert [(n.state.left, n.state.right) for n in walk] == [
        (Fraction(1, 3), Fraction(2, 5)), (Fraction(2, 5), Fraction(3, 7))]

    upper = node_at("CR")
    assert labels(chain(upper, 1)) == [(3, 5, 0)]
    assert (chain(upper, 1)[0].state.left,
            chain(upper, 1)[0].state.right) == (Fraction(3, 5), Fraction(2, 3))

    infant = node_at("UL")
    walk = chain(infant, 2)
    assert [(n.state.left, n.state.right) for n in walk] == [
        (Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 5), Fraction(1, 4))]


def test_chain_members_approach_accumulation_point():
    lower = node_at("CL")
    acc = lower.state.accumulation.value
    assert acc == Fraction(1, 2)
    walk = chain(lower, 8)
    gaps = [abs(n.state.center - acc) for n in walk]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # Members are pairwise disjoint intervals marching toward the point.
    for first, second in zip(walk, walk[1:]):
        assert first.state.right <= second.state.left or \
            second.state.right <= first.state.left


def test_chain_requires_a_tail():
    with pytest.raises(NoTail):
        chain(root(), 1)


def test_node_at_addresses():
    assert node_at("") == root()
    assert node_at([]) == root()
    assert node_at("UL.UL").label.as_tuple() == (5, 8, -3)
    assert node_at([K.U_L, K.U_L]) == node_at("UL.UL")
    assert node_at("UL.TL.TL").chain_run == 2
    assert node_at("UL.TL.TL.CL").chain_run == 0


def test_node_at_rejects_bad_words():
    with pytest.raises(TailDirectionMismatch) as info:
        node_at("TL")
    assert "TL" in str(info.value)
    with pytest.raises(TailDirectionMismatch) as info:
        node_at("UL.TR.CL")  # fails at the second letter
    assert "UL.TR" in str(info.value)
    with pytest.raises(ValueError):
        node_at("UL.XX")


def test_expand_counts():
    assert len(list(expand(ExpansionLimits(0)))) == 1
    assert len(list(expand(ExpansionLimits(1, 0)))) == 7
    assert len(list(expand(ExpansionLimits(2, 0)))) == 43
    assert len(list(expand(ExpansionLimits(2, 1)))) == 49
    # With the cap never binding, the root has 6 children and every other
    # node 7, so the totals telescope to exact powers of seven.
    assert len(list(expand(ExpansionLimits(3, 3)))) == 343
    assert len(list(expand(ExpansionLimits(4, 8)))) == 2401


def test_expand_is_breadth_first_and_deterministic():
    nodes = list(expand(ExpansionLimits(2, 1)))
    assert [n.word_str for n in nodes[:7]] == ["", "CL", "CR", "UL", "UR",
                                               "DL", "DR"]
    depths = [n.depth for n in nodes]
    assert depths == sorted(depths)
    again = list(expand(ExpansionLimits(2, 1)))
    assert [n.word for n in again] == [n.word for n in nodes]


def test_expand_chain_cap_limits_tail_runs():
    nodes = list(expand(ExpansionLimits(4, 2)))
    assert max(n.chain_run for n in nodes) == 2
    # The cap binds trailing runs only; a baby step resets the budget.
    assert any(n.word_str == "CL.TR.TR.CL" for n in nodes)
    assert not any(n.word_str.endswith("TR.TR.TR") for n in nodes)


def test_expand_qc_ceiling_prunes_exactly():
    capped = {n.word for n in expand(ExpansionLimits(3, 3, max_qc=8))}
    full = {n.word for n in expand(ExpansionLimits(3, 3))
            if n.state.q_c <= 8}
    assert capped == full


def test_labels_unique_across_expansion():
    seen = labels(expand(ExpansionLimits(3, 3)))
    assert len(seen) == len(set(seen))


def test_every_interval_is_a_genuine_farey_triplet():
    nodes = list(expand(ExpansionLimits(3, 3)))
    q_max = max(n.state.q_c for n in nodes)
    catalog = {(t.left, t.center, t.right)
               for t in stern_brocot_friendly_triplets(q_max)}
    for n in nodes:
        s = n.state
        assert (s.left, s.center, s.right) in catalog


def test_same_interval_siblings_differ_in_label():
    up, down = node_at("UL"), node_at("DL")
    assert up.state.left == down.state.left
    assert up.state.right == down.state.right
    assert up.label != down.label
    assert up.label.delta_sigma == -down.label.delta_sigma


def test_asymmetry_grows_along_repeated_steps():
    run = [node_at(["UL"] * k) for k in range(1, 9)]
    magnitudes = [abs(n.label.delta_sigma) for n in run]
    assert all(a < b for a, b in zip(magnitudes, magnitudes[1:]))


def test_verify_node_sweep_with_parents():
    by_word = {}
    for n in expand(ExpansionLimits(3, 2)):
        by_word[n.word] = n
        parent = by_word[n.word[:-1]] if n.word else None
        report = verify_node(n, parent)
        assert report.ok, (n.word_str, report.failures)
        assert report.checks >= 11


def test_verify_node_negative_control():
    node = node_at("CL")
    tampered = dataclasses.replace(
        node, state=dataclasses.replace(node.state,
                                        sigma_plus=node.state.sigma_plus + 1))
    report = verify_node(tampered)
    assert not report.ok
    assert any("slope sum" in f for f in report.failures)


def test_child_checks_a_tampered_state():
    node = node_at("CL")
    bumped = dataclasses.replace(
        node, state=dataclasses.replace(node.state,
                                        sigma_plus=node.state.sigma_plus + 1))
    with pytest.raises(InvariantViolation, match="slope sum"):
        child(bumped, K.C_L)
    # CL has edges 0/1 and 1/3; 2/3 keeps both denominators but not friendliness.
    skewed = dataclasses.replace(
        node, state=dataclasses.replace(node.state, right=Fraction(2, 3)))
    with pytest.raises(InvariantViolation, match="edges not friendly: determinant -2"):
        child(skewed, K.U_L)


def test_verify_node_cross_route_catches_a_tampered_label():
    node = node_at("UL")
    tampered = dataclasses.replace(node, label=node_at("DL").label)
    report = verify_node(tampered, root())
    assert any(f.startswith("cross-route:") for f in report.failures)
    assert not any(f.startswith("cross-route:") for f in verify_node(node).failures)


def test_verify_node_rejects_wrong_parent():
    with pytest.raises(ValueError):
        verify_node(node_at("UL.UL"), parent=node_at("CL"))


def test_word_parsing_round_trip():
    assert parse_word("") == ()
    assert parse_word("UL.TL") == (K.U_L, K.C_CL)
    assert word_string((K.U_L, K.C_CL)) == "UL.TL"
    for text in ("", "CL", "UL.TL.TL", "CR.TL.DR"):
        assert word_string(parse_word(text)) == text


def test_record_round_trip():
    node = node_at("UL.TL")
    rec = node_record(node)
    assert rec["word"] == "UL.TL"
    assert [k for k in rec] == list(RECORD_FIELDS)
    assert node_from_record(rec) == node


def test_record_uses_strings_beyond_double_precision():
    node = node_at(["UL"] * 40)
    rec = node_record(node)
    assert isinstance(rec["qc"], str)
    assert int(rec["qc"]) == node.state.q_c
    assert node.state.q_c > 2 ** 53 - 1
    assert node_from_record(rec) == node


def test_jsonl_round_trip():
    nodes = list(expand(ExpansionLimits(2, 1)))
    nodes.append(node_at(["UL"] * 40))
    buf = io.StringIO()
    count = write_jsonl(nodes, buf)
    assert count == len(nodes)
    buf.seek(0)
    assert read_jsonl(buf) == nodes


def test_csv_round_trip():
    nodes = list(expand(ExpansionLimits(2, 1)))
    nodes.append(node_at(["UL"] * 40))
    buf = io.StringIO()
    count = write_csv(nodes, buf)
    assert count == len(nodes)
    buf.seek(0)
    header = buf.readline().strip().split(",")
    assert header == list(RECORD_FIELDS)
    buf.seek(0)
    assert read_csv(buf) == nodes


def test_expansion_limit_validation():
    with pytest.raises(ValueError):
        ExpansionLimits(-1)
    with pytest.raises(ValueError):
        ExpansionLimits(2, -1)
    with pytest.raises(ValueError):
        ExpansionLimits(2, 0, max_qc=1)


def test_record_readers_name_the_bad_line_and_field():
    good = node_record(node_at("UL"))
    missing = {k: v for k, v in good.items() if k != "qR"}
    with pytest.raises(MalformedRecord, match="^field qR is missing$"):
        node_from_record(missing)
    lines = [json.dumps(good), "", json.dumps(missing)]
    with pytest.raises(MalformedRecord, match="^line 3: field qR is missing$"):
        read_jsonl(io.StringIO("\n".join(lines) + "\n"))
    for bad in ("five", 2.0, True, None):
        with pytest.raises(MalformedRecord, match="^line 1: field pc is not an integer"):
            read_jsonl(io.StringIO(json.dumps(dict(good, pc=bad)) + "\n"))
    for text in ("{oops", "[1, 2]", json.dumps(dict(good, word=5))):
        with pytest.raises(MalformedRecord, match="^line 2: "):
            read_jsonl(io.StringIO(json.dumps(good) + "\n" + text + "\n"))

    buf = io.StringIO()
    write_csv([root(), node_at("UL")], buf)
    header, first, second = buf.getvalue().splitlines()
    cells = second.split(",")
    cells[RECORD_FIELDS.index("qL")] = "3.5"
    with pytest.raises(MalformedRecord, match="^row 2: field qL is not an integer: '3.5'$"):
        read_csv(io.StringIO("\n".join([header, first, ",".join(cells)]) + "\n"))
    short = ",".join(c for c in header.split(",") if c != "depth")
    with pytest.raises(MalformedRecord, match="^row 1: field depth is missing$"):
        read_csv(io.StringIO(short + "\n" + first + "\n"))


def _writer_cases():
    """Root, babies, chain members, tampered nodes and a q_c beyond 2^53."""
    ul = node_at("UL")
    bumped = dataclasses.replace(ul, state=dataclasses.replace(
        ul.state, sigma_plus=ul.state.sigma_plus + 1), cell_class="chain")
    far_left = dataclasses.replace(ul, state=dataclasses.replace(
        ul.state, left=Fraction(-(2 ** 60), 3)), depth=7)
    return ([root()] + children(root()) + chain(ul, 3)
            + [bumped, far_left, node_at(["UL"] * 45)])


def test_writers_match_the_library_encoders():
    nodes = _writer_cases()
    assert int(node_record(nodes[-1])["qc"]) > 2 ** 53
    jsonl = io.StringIO()
    assert write_jsonl(nodes, jsonl) == len(nodes)
    assert jsonl.getvalue().splitlines() == [
        json.dumps(node_record(n), separators=(",", ":")) for n in nodes]
    got, want = io.StringIO(), io.StringIO()
    assert write_csv(nodes, got) == len(nodes)
    writer = csv.DictWriter(want, fieldnames=RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(node_record(n) for n in nodes)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("limits", [ExpansionLimits(3, 0), ExpansionLimits(3, 2),
                                    ExpansionLimits(4, 1, max_qc=40)])
def test_expand_is_the_core_walk(limits):
    nodes = list(expand(limits))
    assert [(core, word, text) for core, word, text, _ in walk(limits)] == [
        (n.state.core, n.word, n.word_str) for n in nodes]
    assert [run for *_, run in walk(limits)] == [n.chain_run for n in nodes]
    assert list(expand_rows(limits)) == [node_row(n) for n in nodes]


def test_expand_steps_every_candidate_child(monkeypatch):
    # Chain children over the cap and children over max_qc are still
    # stepped and checked; only emission is limited.
    limits = ExpansionLimits(4, 1, max_qc=40)
    expected = sum(6 + (n.state.tail_generator is not None)
                   for n in expand(limits) if n.depth < limits.max_depth)
    calls = []
    real = tree.step_core
    monkeypatch.setattr(tree, "step_core",
                        lambda kind, core: calls.append(kind) or real(kind, core))
    for _ in walk(limits):
        pass
    assert len(calls) == expected
