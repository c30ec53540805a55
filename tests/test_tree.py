"""Octonary tree expansion, addressing, verification, and export round trips."""

import collections
import csv
import dataclasses
import fractions
import io
import json
from fractions import Fraction

import pytest

from butterfly_tree.diophantine import center_gap_index, recover_edges
from butterfly_tree.errors import (
    ButterflyError,
    InvariantViolation,
    MalformedRecord,
    NoTail,
    TailDirectionMismatch,
)
from butterfly_tree import generators, tree
from butterfly_tree.cli import main
from butterfly_tree.farey import stern_brocot_friendly_triplets
from butterfly_tree.generators import (
    ROOT_STATE,
    ButterflyLabel,
    ButterflyState,
    GeneratorKind,
    _check_steps,
    _check_tail,
    apply_label,
    step_core,
    tail_side,
)
from butterfly_tree.tree import (
    RECORD_FIELDS,
    ExpansionLimits,
    TreeNode,
    chain,
    chain_cores,
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
from oracles import chain_run
from test_golden import lcg_word

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
    assert chain_run(node_at("UL.TL.TL").word) == 2
    assert chain_run(node_at("UL.TL.TL.CL").word) == 0


def test_node_at_rejects_bad_words():
    with pytest.raises(TailDirectionMismatch) as info:
        node_at("TL")
    assert "TL" in str(info.value)
    with pytest.raises(TailDirectionMismatch) as info:
        node_at("UL.TR.CL")  # fails at the second letter
    assert "UL.TR" in str(info.value)
    # Every input form converts all its tokens before the replay, so an
    # unknown token fails ahead of an earlier chain letter against the tail.
    for word in ("UL.XX", "UL.TR.XX", ["UL", "XX"], ["UL", "TR", "XX"],
                 (GeneratorKind.U_L, "TR", "XX")):
        with pytest.raises(ValueError, match="^unknown generator token 'XX'$"):
            node_at(word)
    # An item that is neither a generator nor a string is an unknown token too.
    for item, text in ((5, "5"), (["TR"], "['TR']"), (None, "None")):
        with pytest.raises(ValueError) as info:
            node_at(["UL", item])
        assert str(info.value) == f"unknown generator token {text}"


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
    assert max(chain_run(n.word) for n in nodes) == 2
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
        assert report.checks >= 8


def test_verify_node_negative_control():
    node = node_at("CL")
    tampered = _with_state(node, sigma_plus=node.state.sigma_plus + 1)
    report = verify_node(tampered)
    assert not report.ok
    assert any("slope sum" in f for f in report.failures)


def test_child_checks_a_tampered_state():
    node = node_at("CL")
    bumped = _with_state(node, sigma_plus=node.state.sigma_plus + 1)
    with pytest.raises(InvariantViolation, match="slope sum"):
        child(bumped, K.C_L)
    # CL has edges 0/1 and 1/3; 2/3 keeps both denominators but not friendliness.
    skewed = _with_state(node, right=Fraction(2, 3))
    with pytest.raises(InvariantViolation, match="edges not friendly: determinant -2"):
        child(skewed, K.U_L)


BAD = TreeNode((1, 0, 1, 0, 1, 0), ())  # q_L = 0


@pytest.mark.parametrize("step, text", [
    (lambda: child(BAD, K.C_L), "C_L on (1, 0, 1, 0, 1, 0) produced a bad state: "
     "denominators must be positive: q_R=1, q_L=0"),
    (lambda: children(BAD), "C_L on (1, 0, 1, 0, 1, 0) produced a bad state: "
     "denominators must be positive: q_R=1, q_L=0"),
    (lambda: chain(BAD, 2), "C_cR on (1, 0, 1, 0, 1, 0) produced a bad state: "
     "edges out of order: 1, 1; edges not friendly: determinant 0"),
    (lambda: child(TreeNode((3, -1, 1, 1, -1, 0), ()), K.C_L),
     "C_L on (3, -1, 1, 1, -1, 0) produced a bad state: "
     "denominators must be positive: q_R=1, q_L=-1"),
], ids=["child", "children", "chain", "negative"])
def test_a_step_from_a_bad_core_names_that_core(step, text):
    # A zero denominator once raised ZeroDivisionError here, from the state
    # built to word the error, and q_L = -1 was written as 0/1.
    with pytest.raises(InvariantViolation) as info:
        step()
    assert str(info.value) == text


def test_verify_node_cross_route_catches_a_tampered_label():
    node = node_at("UL")
    tampered = node._replace(core=node_at("DL").core)
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


def step_fold(word):
    """The oracle: `step_core` on each letter in turn, the replay as it used to run.

    A failing prefix is named in full up to 20 letters; past that, by the
    letter's number and token and the first and last four letters."""
    core = ROOT_STATE.core
    for i, kind in enumerate(word):
        try:
            core = step_core(kind, core)
        except TailDirectionMismatch as exc:
            tokens = [k.token for k in word[:i + 1]]
            where = f"prefix {'.'.join(tokens)}"
            if len(tokens) > 20:
                where = (f"letter {len(tokens)} ({kind.token}) of prefix "
                         f"{'.'.join(tokens[:4])} ... {'.'.join(tokens[-4:])}")
            raise TailDirectionMismatch(f"word fails at {where}: {exc}") from exc
    return core


@pytest.mark.parametrize("length, seed", [(1, 1), (2, 2), (3, 3), (17, 4), (100, 5),
                                          (999, 6), (3000, 7)])
def test_node_at_equals_a_step_core_fold(length, seed):
    text = lcg_word(length, seed)
    word = parse_word(text)
    assert length < 17 or any(kind.is_chain for kind in word)
    want = step_fold(word)
    assert node_at(text).state.core == want
    assert node_at(text.split(".")).state.core == want


def test_a_bad_chain_letter_past_letter_1000_names_its_prefix():
    word = parse_word(lcg_word(1200, 9))
    for cut in (1001, 1100, 1200):
        q_r, q_l = step_fold(word[:cut])[:2]
        against = K.C_CL if q_r > q_l else K.C_CR
        bad = word[:cut] + (against,) + word[cut:cut + 5]
        with pytest.raises(TailDirectionMismatch) as oracle:
            step_fold(bad)
        with pytest.raises(TailDirectionMismatch) as got:
            node_at(word_string(bad))
        assert str(got.value) == str(oracle.value)
        assert str(got.value).startswith(
            f"word fails at letter {cut + 1} ({against.token}) of prefix "
            f"{word_string(word[:4])} ... {word_string(word[cut - 3:cut])}.{against.token}: ")
        assert len(str(got.value).partition(": ")[0]) < 80  # the state follows


@pytest.mark.parametrize("cut", [0, 1, 18, 19, 20, 21, 40])
def test_a_bad_chain_letter_names_a_prefix_of_up_to_20_letters_in_full(cut):
    word = parse_word(lcg_word(60, 9))[:cut]
    q_r, q_l = step_fold(word)[:2]
    against = K.C_CL if q_r >= q_l else K.C_CR
    bad = word + (against,)
    with pytest.raises(TailDirectionMismatch) as oracle:
        step_fold(bad)
    with pytest.raises(TailDirectionMismatch) as got:
        node_at(word_string(bad))
    assert str(got.value) == str(oracle.value)
    full = f"word fails at prefix {word_string(bad)}: "
    assert str(got.value).startswith(full) == (cut < 20)


def test_a_letter_failing_a_sign_check_gets_the_step_error(monkeypatch):
    # C_L's slope shifts replaced by ones that drive sigma_+ below 1.
    monkeypatch.setattr(K.C_L, "step", (1, 2, 0, 1, -9, 0, 0, 1))
    with pytest.raises(InvariantViolation) as oracle:
        step_fold(parse_word("UL.UR.CL.DR"))
    with pytest.raises(InvariantViolation) as got:
        node_at("UL.UR.CL.DR")
    assert str(got.value) == str(oracle.value)
    assert "C_L on " in str(got.value) and "slopes must be positive" in str(got.value)


def test_an_unimodularity_breach_is_caught_at_import_and_by_the_replay(monkeypatch):
    _check_steps()
    # The swap has determinant -1 and keeps every sign and the slope sum, so
    # only the final check sees C_L used an odd number of times.
    monkeypatch.setattr(K.C_L, "step", (0, 1, 1, 0, 0, 0, 0, 0))
    with pytest.raises(InvariantViolation,
                       match="^C_L step block has determinant -1, not 1$"):
        _check_steps()
    with pytest.raises(InvariantViolation, match="^5-letter word replays to a bad "
                       "state: edges out of order: 5/8, 3/5; edges not friendly: "
                       "determinant 1$"):
        node_at("CL.UL.CL.UR.CL")
    with pytest.raises(InvariantViolation, match="edges not friendly: determinant 1"):
        child(root(), K.C_L)


def test_a_replay_runs_the_full_check_once(monkeypatch):
    calls = []

    def counted(core):
        calls.append(core)
        return real(core)

    real = generators._problems
    monkeypatch.setattr(generators, "_problems", counted)
    monkeypatch.setattr(tree, "_problems", counted)
    node = node_at(lcg_word(500, 10))
    assert calls == [node.state.core]


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
    # An unquoted integer past the interpreter's digit limit fails json.loads.
    unquoted = json.dumps(good).replace('"qR": 2', '"qR": 1' + "0" * 5000)
    with pytest.raises(MalformedRecord, match="^line 1: not JSON: Exceeds the limit"):
        read_jsonl(io.StringIO(unquoted + "\n"))

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
    # Class and depth are views of the word, so those tampers change the word.
    bumped = _with_state(ul, sigma_plus=ul.state.sigma_plus + 1)._replace(word=(K.C_CL,))
    far_left = _with_state(ul, left=Fraction(-(2 ** 60), 3))._replace(word=(K.U_L,) * 7)
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


_SAFE = 2 ** 53 - 1
# -(10^4400 + 12345): past the interpreter's 4 300-digit limit, so str() refuses it.
_HUGE_DIGITS = "-1" + "0" * 4395 + "12345"
_HUGE = -(10 ** 4400 + 12345)
_INT_FIELDS = RECORD_FIELDS[1:10]


def _boundary_rows():
    """The row of UL with one integer field set to each boundary value."""
    base = node_row(node_at("UL"))
    for i in range(1, 10):
        for value in (_SAFE, -_SAFE, _SAFE + 1, -_SAFE - 1, _HUGE, -_HUGE):
            yield base[:i] + (value,) + base[i + 1:]


def _record_text(row, key, value):
    if value in (_HUGE, -_HUGE):
        return _HUGE_DIGITS if value < 0 else _HUGE_DIGITS[1:]
    return value if key not in _INT_FIELDS or -_SAFE <= value <= _SAFE else str(value)


def test_writers_quote_and_chunk_every_integer_field_at_its_boundary():
    rows = list(_boundary_rows())
    assert len(rows) == 54
    jsonl = io.StringIO()
    assert tree.write_jsonl_rows(rows, jsonl) == len(rows)
    assert jsonl.getvalue().splitlines() == [
        json.dumps({key: _record_text(row, key, value)
                    for key, value in zip(RECORD_FIELDS, row)}, separators=(",", ":"))
        for row in rows]
    got, want = io.StringIO(), io.StringIO()
    assert tree.write_csv_rows(rows, got) == len(rows)
    writer = csv.DictWriter(want, fieldnames=RECORD_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _record_text(row, key, value) if value in (_HUGE, -_HUGE)
                         else value for key, value in zip(RECORD_FIELDS, row)})
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("limits", [ExpansionLimits(3, 0), ExpansionLimits(3, 2),
                                    ExpansionLimits(4, 1, max_qc=40)])
def test_expand_is_the_core_walk(limits):
    nodes = list(expand(limits))
    assert [(core, word, text) for core, word, text, _, _ in walk(limits)] == [
        (n.state.core, n.word, n.word_str) for n in nodes]
    assert [run for *_, run, _ in walk(limits)] == [chain_run(n.word) for n in nodes]
    assert list(expand_rows(limits)) == [node_row(n) for n in nodes]


@pytest.mark.parametrize("limits, stepped", [
    (ExpansionLimits(3, 0), None), (ExpansionLimits(3, 3), None),
    (ExpansionLimits(4, 1, max_qc=40), None), (ExpansionLimits(5, 2), 16_722),
    (ExpansionLimits(6, 2, max_qc=100), 13_310)])
def test_expand_steps_only_the_children_it_emits(monkeypatch, limits, stepped):
    # The chain cap and the q_c ceiling are decided from the parent, so
    # every child stepped is emitted and nothing else is stepped.
    calls = []
    real = tree.step_core
    monkeypatch.setattr(tree, "step_core",
                        lambda kind, core: calls.append(kind) or real(kind, core))
    emitted = sum(1 for _ in walk(limits))
    assert len(calls) == emitted - 1
    if stepped is not None:
        assert len(calls) == stepped


def _walk_stepping_every_candidate(limits):
    """The breadth-first walk that steps each candidate child, then filters."""
    queue = collections.deque([(ROOT_STATE.core, (), "", 0, None)])
    out = []
    while queue:
        item = queue.popleft()
        out.append(item)
        core, word, text, run, _ = item
        if len(word) >= limits.max_depth:
            continue
        tail = generators.tail_generator(core[0], core[1])
        for kind in generators.BABY_KINDS + ((tail,) if tail else ()):
            kid = step_core(kind, core)
            if kind.is_chain and run >= limits.chain_cap:
                continue
            if limits.max_qc is not None and kid[0] + kid[1] > limits.max_qc:
                continue
            queue.append((kid, word + (kind,), word_string(word + (kind,)),
                          run + 1 if kind.is_chain else 0, core))
    return out


@pytest.mark.parametrize("max_qc", [2, 3, 5, 40, 100, None])
@pytest.mark.parametrize("chain_cap", [0, 1, 2, 3])
def test_walk_equals_stepping_every_candidate(chain_cap, max_qc):
    limits = ExpansionLimits(4, chain_cap, max_qc)
    assert list(walk(limits)) == _walk_stepping_every_candidate(limits)


# ------------------------------------------------ verify_node on the integers

def _seed_combo(a, u, b, v):
    return Fraction(a * u.numerator + b * v.numerator,
                    a * u.denominator + b * v.denominator)


def _seed_apply_state(kind, state):
    """The explicit recursion on Fraction edges, kept here as the oracle's own."""
    _check_tail(kind, state.q_r, state.q_l, "state")
    v_l, v_r = state.left, state.right
    s_p, s_m = state.sigma_plus, state.sigma_minus
    q_l, q_r, q_c = state.q_l, state.q_r, state.q_c
    if kind is K.C_L:
        new = ButterflyState(v_l, _seed_combo(1, v_r, 2, v_l), s_p + q_l, s_m + q_l)
    elif kind is K.C_R:
        new = ButterflyState(_seed_combo(1, v_l, 2, v_r), v_r, s_p + q_r, s_m + q_r)
    elif kind is K.U_L:
        new = ButterflyState(_seed_combo(2, v_l, 1, v_r), _seed_combo(1, v_l, 1, v_r),
                             s_p + q_l, s_m + q_c)
    elif kind is K.U_R:
        new = ButterflyState(_seed_combo(1, v_l, 1, v_r), _seed_combo(1, v_l, 2, v_r),
                             s_p + q_c, s_m + q_r)
    elif kind is K.D_L:
        new = ButterflyState(_seed_combo(2, v_l, 1, v_r), _seed_combo(1, v_l, 1, v_r),
                             s_p + q_c, s_m + q_l)
    elif kind is K.D_R:
        new = ButterflyState(_seed_combo(1, v_l, 1, v_r), _seed_combo(1, v_l, 2, v_r),
                             s_p + q_r, s_m + q_c)
    elif kind is K.C_CL:
        step = q_l - q_r
        new = ButterflyState(_seed_combo(2, v_l, -1, v_r), v_l, s_p + step, s_m + step)
    else:
        step = q_r - q_l
        new = ButterflyState(v_r, _seed_combo(2, v_r, -1, v_l), s_p + step, s_m + step)
    problems = new.check()
    if problems:
        raise InvariantViolation(
            f"{kind.value} on {state} produced a bad state: " + "; ".join(problems))
    return new


_SEED_QC_STEP = {
    K.C_L: lambda q_r, q_l: q_r + 3 * q_l,
    K.C_R: lambda q_r, q_l: 3 * q_r + q_l,
    K.U_L: lambda q_r, q_l: 2 * (q_r + q_l) + q_l,
    K.U_R: lambda q_r, q_l: 2 * (q_r + q_l) + q_r,
    K.D_L: lambda q_r, q_l: 2 * (q_r + q_l) + q_l,
    K.D_R: lambda q_r, q_l: 2 * (q_r + q_l) + q_r,
    K.C_CL: lambda q_r, q_l: q_r + q_l + 2 * (q_l - q_r),
    K.C_CR: lambda q_r, q_l: q_r + q_l + 2 * (q_r - q_l),
}

_SEED_DSIGMA_STEP = {
    K.C_L: lambda q_r, q_l: 0,
    K.C_R: lambda q_r, q_l: 0,
    K.U_L: lambda q_r, q_l: -q_r,
    K.U_R: lambda q_r, q_l: q_l,
    K.D_L: lambda q_r, q_l: q_r,
    K.D_R: lambda q_r, q_l: -q_l,
    K.C_CL: lambda q_r, q_l: 0,
    K.C_CR: lambda q_r, q_l: 0,
}


def seed_verify_node(node, parent=None):
    """The invariant battery on Fraction states, as it ran before the integer one.

    The oracle of the differential test: every report of `verify_node`
    must equal this one, word for word, except where a given parent is
    unfriendly (see `UNFRIENDLY_PARENT_FAILURES`).  Like `verify_node`, it
    takes a given parent as verified: only the root's word and a missing
    parent's prefix are replayed.
    """
    failures = list(node.state.check())
    checks = 4
    state = node.state
    label = (state.q_r, state.q_l, state.delta_sigma)  # the view raises on a bad core

    checks += 1
    try:
        p_l, p_r = recover_edges(state.q_r, state.q_l)
        if (p_l, p_r) != (state.left.numerator, state.right.numerator):
            failures.append(
                f"numerators {(state.left.numerator, state.right.numerator)} "
                f"differ from recovered {(p_l, p_r)}")
    except Exception as exc:
        failures.append(f"edge recovery failed: {exc}")

    checks += 1
    if state.width != Fraction(1, state.q_l * state.q_r):
        failures.append(f"width {state.width} != 1/(q_L q_R)")

    checks += 1
    try:
        r_c, _ = center_gap_index(state)
        if not 0 < r_c < state.q_c:
            failures.append(f"central gap index {r_c} out of range")
    except Exception as exc:
        failures.append(f"central gap congruence failed: {exc}")

    if not node.word:
        checks += 1
        try:
            replay = node_at(node.word)
            if replay.state != state or replay.label.as_tuple() != label:
                failures.append("word replay disagrees with stored node")
        except Exception as exc:
            failures.append(f"word replay failed: {exc}")

    if node.word:
        if parent is None:
            parent = node_at(node.word[:-1])
        elif parent.word != node.word[:-1]:
            raise ValueError("given parent does not match word prefix")
        last = node.word[-1]
        p_state = parent.state

        checks += 1
        try:
            via_state = _seed_apply_state(last, p_state)
            via_label = apply_label(last, parent.label)
        except ButterflyError as exc:
            failures.append(f"cross-route: stepping the parent failed: {exc}")
        else:
            if via_state != state or via_label.as_tuple() != label:
                failures.append(
                    f"cross-route: {last.value} on the parent gives state "
                    f"{via_state.core} and label {via_label.as_tuple()}, the node "
                    f"has {state.core} and {label}")

        checks += 1
        expected_qc = _SEED_QC_STEP[last](p_state.q_r, p_state.q_l)
        if state.q_c != expected_qc:
            failures.append(f"q_c {state.q_c} != expected {expected_qc}")

        checks += 1
        expected_ds = p_state.delta_sigma + _SEED_DSIGMA_STEP[last](
            p_state.q_r, p_state.q_l)
        if state.delta_sigma != expected_ds:
            failures.append(
                f"Delta-sigma {state.delta_sigma} != expected {expected_ds}")

        checks += 1
        if last.is_chain:
            acc = p_state.accumulation.value
            if parent.tail_direction == "right":
                if state.left != p_state.right or not state.right < acc:
                    failures.append("chain member not between parent edge "
                                    "and accumulation point")
            else:
                if state.right != p_state.left or not state.left > acc:
                    failures.append("chain member not between accumulation "
                                    "point and parent edge")
        else:
            if not (p_state.left <= state.left and state.right <= p_state.right):
                failures.append("baby interval escapes the parent interval")

        checks += 1
        parity_preserved = (state.q_c - p_state.q_c) % 2 == 0
        if last.cell_class in ("C-cell", "chain"):
            if not parity_preserved:
                failures.append("parity-preserving step changed q_c parity")
        else:
            left_kind = last in (K.U_L, K.D_L)
            side = p_state.q_l if left_kind else p_state.q_r
            if state.q_c != 2 * p_state.q_c + side:
                failures.append("E-cell step is not q_c' = 2 q_c + q_edge")

    return tree.NodeVerification(node.word_str, checks, tuple(failures))


def _with_state(node, **changes):
    return node._replace(core=dataclasses.replace(node.state, **changes).core)


def _reducing_pair():
    """A parent with unfriendly edges and a child that matches its Fraction step.

    U_L on edges 0/1, 2/3 gives 2/5 and 2/4 on the integers, which the
    Fraction view reduces to 1/2: only the state view agrees with this child.
    """
    parent = _with_state(node_at("CL"), right=Fraction(2, 3), sigma_plus=1, sigma_minus=1)
    node = _with_state(node_at("CL.UL"), left=Fraction(2, 5), right=Fraction(1, 2),
                       sigma_plus=2, sigma_minus=5)
    return node, parent


def _tampered_pairs():
    """(node, parent) pairs that between them break every check of the battery."""
    r, cl, cr, ul, dl = (node_at(w) for w in ("", "CL", "CR", "UL", "DL"))
    cl_tr, ul_tl = node_at("CL.TR"), node_at("UL.TL")
    skewed_cl = _with_state(cl, right=Fraction(2, 3))  # edges not friendly
    pairs = [
        (_with_state(cl, sigma_plus=cl.state.sigma_plus + 1), r),  # slope sum, gap
        (_with_state(ul, left=ul.state.right, right=ul.state.left), r),  # order
        (skewed_cl, r),  # friendly, numerators, width
        (_with_state(cl, left=Fraction(1, 2), right=Fraction(1, 4)), r),  # recovery
        (ul._replace(core=dl.core), r),  # cross-route
        (cl._replace(word=(K.C_R,)), r),  # the cell class's letter
        (cl._replace(core=cr.core), r),  # the tail side's denominators
        (_with_state(cl, sigma_plus=4, sigma_minus=0), r),  # gap index 0, slopes
        (_with_state(ul, sigma_plus=dl.state.sigma_plus,
                     sigma_minus=dl.state.sigma_minus), r),  # Delta-sigma
        (ul._replace(word=(K.D_L,)), r),  # the last letter
        (r._replace(core=cl.core), None),  # the root's core
        (node_at("CL.UL")._replace(word=(K.C_CR, K.U_L)),
         cl._replace(word=(K.C_CR,))),  # passes; its parent fails
        (ul, r._replace(core=cl.core)),  # q_c, baby, E-cell
        (cl, r._replace(core=ul.core)),  # parity
        (cl_tr, _with_state(cl, left=cr.state.left, right=cr.state.right)),  # tail step
        (_with_state(cl_tr, right=Fraction(3, 5)), cl),  # chain-between
        (_with_state(node_at("CR.TL"), left=Fraction(2, 5)), cr),  # chain-between
        (_with_state(ul_tl, right=Fraction(2, 7)), ul),  # chain member moved
        (node_at("CL.UL"), skewed_cl),  # a parent whose routes reduce
        _reducing_pair(),
    ]
    # Again without a parent, for every node whose prefix replays.
    return pairs + [(node, None) for node, parent in pairs
                    if parent is not None and node.word[:1] != (K.C_CR,)]


# verify_node's reports on the two pairs whose given parent is unfriendly,
# in `_tampered_pairs` order.  Its routes step that parent on the integers as
# they are; the oracle's Fraction view reduces the first step and raises on
# the second, so only these texts differ from the oracle's.
UNFRIENDLY_PARENT_FAILURES = [
    ("cross-route: U_L on the parent gives state (4, 5, 3, 6, 2, 2) and label "
     "(4, 5, -3), the node has (4, 5, 3, 6, 1, 1) and (4, 5, -3)",),
    ("cross-route: U_L on the parent gives state (4, 5, 2, 5, 2, 2) and label "
     "(4, 5, -3), the node has (2, 5, 2, 5, 1, 2) and (2, 5, -3)",
     "q_c 7 != expected 9", "E-cell step is not q_c' = 2 q_c + q_edge"),
]


def test_verify_node_equals_the_fraction_battery_on_every_node():
    by_word = {}
    for node in expand(ExpansionLimits(3, 2)):
        by_word[node.word] = node
        parent = by_word[node.word[:-1]] if node.word else None
        for given in (parent, None):
            report = verify_node(node, given)
            assert report == seed_verify_node(node, given)
            assert report.ok, (node.word_str, report.failures)
    assert len(by_word) == 343


def test_verify_node_equals_the_fraction_battery_on_tampered_nodes():
    texts, unfriendly = set(), []
    for node, parent in _tampered_pairs():
        report = verify_node(node, parent)
        if parent is not None and parent.state.check():
            unfriendly.append(report.failures)
        else:
            assert report == seed_verify_node(node, parent), (node.word_str, parent)
        assert report.checks == (12 if node.word else 8)
        # The induction: a pair passes only under a parent that fails itself.
        assert parent is None or not report.ok or not verify_node(parent).ok
        texts.update(report.failures)
    assert unfriendly == UNFRIENDLY_PARENT_FAILURES
    needed = ["slope sum", "edges out of order", "edges not friendly",
              "slopes must be positive", "numerators",
              "edge recovery failed", "width",
              "central gap congruence failed", "central gap index",
              "word replay disagrees", "cross-route: C_",
              "cross-route: stepping the parent failed", "q_c ", "Delta-sigma",
              "between parent edge", "between accumulation point",
              "baby interval escapes", "parity-preserving", "E-cell step"]
    assert [n for n in needed if not any(n in t for t in texts)] == []
    # The reduced child's edges match the parent's Fraction step, but not
    # its integer step.
    node, parent = _reducing_pair()
    assert any(f.startswith("cross-route") for f in verify_node(node, parent).failures)
    # The unreduced integer step, a core no Fraction state holds: every route
    # agrees with it, so only its own checks fail.
    stepped = TreeNode(generators.state_route(K.U_L, parent.core), node.word)
    failures = verify_node(stepped, parent).failures
    assert "edges not friendly: determinant -2" in failures
    assert not any(f.startswith("cross-route") for f in failures)


def test_verify_node_sees_a_slope_shift_that_keeps_the_sum():
    # sigma_+ + 1 and sigma_- - 1 keep the slope sum and the central gap;
    # the label moves with them, so only the parent relations disagree.
    node = node_at("UL.CR")
    shifted = _with_state(node, sigma_plus=node.state.sigma_plus + 1,
                          sigma_minus=node.state.sigma_minus - 1)
    with_parent = verify_node(shifted, node_at("UL"))
    assert with_parent.failures == (
        "cross-route: C_R on the parent gives state (2, 7, 4, 5, 1, 3) and label "
        "(2, 7, -1), the node has (2, 7, 5, 4, 1, 3) and (2, 7, 1)",
        "Delta-sigma 1 != expected -1")
    assert verify_node(shifted) == with_parent  # the replayed parent is the same


def test_verify_node_reports_what_it_used_to_raise():
    # A chain letter over a parent with q_R == q_L: no accumulation point.
    node = node_at("CL.TR")._replace(word=(K.C_CR,))
    tail = "C_cR needs q_R > q_L, state has (1, 1)"
    for parent in (root(), None):
        report = verify_node(node, parent)
        assert report.failures == (
            f"cross-route: stepping the parent failed: {tail}",
            "q_c 8 != expected 2",
            "chain member of a parent with no accumulation point: "
            "equal denominators in 0, 1")
        assert report.checks == 12
    # No parent given and a prefix that does not replay.
    report = verify_node(node_at("CL.UL")._replace(word=(K.C_CR, K.U_L)))
    assert report.failures == (f"parent replay failed: word fails at prefix TR: {tail}",)
    assert report.checks == 8
    # A negative denominator: the width in lowest terms, with a positive denominator.
    assert "width 1/3 != 1/(q_L q_R)" in verify_node(TreeNode((3, -1, 1, 1, 1, 0), ())).failures
    # A zero denominator: reported, where the width text once raised from Fraction(0, 0).
    node = node_at("CL")._replace(core=(0, 1, 1, 1, 0, 0))
    for parent in (root(), None):
        failures = verify_node(node, parent).failures
        assert failures[:3] == ("denominators must be positive: q_R=0, q_L=1",
                                "edge recovery failed: denominators must be positive, "
                                "got (0, 1)",
                                "width 0/0 != 1/(q_L q_R)")


def test_a_verify_sweep_replays_no_word(monkeypatch, capsys):
    nodes = list(expand(ExpansionLimits(3, 2)))
    calls = []
    real = tree._replay
    monkeypatch.setattr(tree, "_replay", lambda *args: calls.append(args) or real(*args))
    assert main(["verify", "--depth", "3", "--chain-cap", "2"]) == 0
    assert capsys.readouterr().out == "verified 343 nodes: all invariants hold\n"
    assert calls == []
    # Without its parent, a node replays its prefix once.
    node = nodes[-1]
    assert verify_node(node)
    assert calls == [(node.word[:-1],)]


def _sweep(nodes):
    """The words that fail `verify_node` when every parent is given, as CLI verify runs."""
    by_word, failed = {}, []
    for node in nodes:
        by_word[node.word] = node
        if not verify_node(node, by_word[node.word[:-1]] if node.word else None):
            failed.append(node.word_str)
    return failed


@pytest.mark.parametrize("word, shift", [("UL.CR", 1), ("DL.TL", -1), ("CR.CL.UR", 2)])
def test_a_verify_sweep_flags_a_slope_shift(word, shift):
    # sigma_+ + k and sigma_- - k keep the slope sum and the central gap,
    # so the node's own checks pass: only its parent's step tells.
    nodes = list(expand(ExpansionLimits(3, 2)))
    assert _sweep(nodes) == []
    at = [n.word_str for n in nodes].index(word)
    q_r, q_l, s_p, s_m, p_r, p_l = nodes[at].core
    nodes[at] = TreeNode((q_r, q_l, s_p + shift, s_m - shift, p_r, p_l), nodes[at].word)
    assert generators._problems(nodes[at].core) == []
    # Its children are stepped from the true core, so they fail against it too.
    kids = [n.word_str for n in nodes if n.word[:-1] == nodes[at].word]
    assert _sweep(nodes) == [word] + kids


def test_a_bogus_parent_is_caught_where_it_is_verified():
    # CL's core under the word TR, and its U_L child under TR.UL: the child
    # is its given parent's step, so it passes; the parent is no root's step.
    parent = node_at("CL")._replace(word=(K.C_CR,))
    node = node_at("CL.UL")._replace(word=(K.C_CR, K.U_L))
    assert verify_node(node, parent).ok
    assert verify_node(parent).failures[0] == (
        "cross-route: stepping the parent failed: C_cR needs q_R > q_L, state has (1, 1)")
    assert not verify_node(node).ok


def test_verify_node_builds_no_fraction_on_passing_nodes(monkeypatch, capsys):
    nodes = list(expand(ExpansionLimits(3, 2)))
    by_word = {node.word: node for node in nodes}
    word = lcg_word(300, 12)
    made = []
    real = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    Fraction(1, 2)
    assert made == [(1, 2)]  # the patch sees construction
    made.clear()
    for node in nodes:
        assert verify_node(node, by_word.get(node.word[:-1]) if node.word else None)
        assert verify_node(node)
    # Building nodes builds no Fraction either: state and label are views.
    assert len(list(expand(ExpansionLimits(3, 2)))) == 343
    deep = node_at(word)
    assert node_at(word.split(".")) == deep
    assert len(children(deep)) == 7 and len(chain(deep, 5)) == 5
    assert main(["verify", "--depth", "3", "--chain-cap", "2"]) == 0
    assert capsys.readouterr().out == "verified 343 nodes: all invariants hold\n"
    assert made == []


def test_a_node_holds_its_core_and_word_alone():
    assert TreeNode._fields == ("core", "word")


def stored_fields(core, word):
    """Label, state, depth, cell class and tail direction, built as a node stored them."""
    q_r, q_l, s_p, s_m = core[:4]
    return (ButterflyLabel(q_r, q_l, s_p - s_m), ButterflyState.from_core(core), len(word),
            word[-1].cell_class if word else "root", tail_side(q_r, q_l))


def stored_record(core, word):
    """The export record of a node as it was built from the stored fields."""
    label, state, depth, cell, tail = stored_fields(core, word)
    ints = {"qR": state.q_r, "qL": state.q_l, "dSigma": label.delta_sigma,
            "pL": state.left.numerator, "pR": state.right.numerator,
            "pc": state.left.numerator + state.right.numerator, "qc": state.q_c,
            "sigmaPlus": state.sigma_plus, "sigmaMinus": state.sigma_minus}
    return {"word": word_string(word),
            **{key: n if abs(n) < 2 ** 53 else str(n) for key, n in ints.items()},
            "cellClass": cell, "tailDirection": tail, "depth": depth}


def test_node_views_equal_the_fields_a_node_stored():
    deep = node_at(lcg_word(3000, 11))
    nodes = (list(expand(ExpansionLimits(4, 2))) + [deep] + chain(deep, 3)
             + children(deep) + chain(node_at("UL"), 4))
    assert len(nodes) > 1000 and deep.state.q_c > 2 ** 1000
    for node in nodes:
        assert (node.label, node.state, node.depth, node.cell_class,
                node.tail_direction) == stored_fields(node.core, node.word)
        assert node_record(node) == stored_record(node.core, node.word)


def test_a_chain_never_flips_its_tail():
    # C_cR sends (q_R, q_L) to (2 q_R - q_L, q_R) and C_cL sends it to
    # (q_L, 2 q_L - q_R): each keeps the difference of the denominators.
    tailed = 0
    for node in expand(ExpansionLimits(4, 2)):
        q_r, q_l = node.core[:2]
        if q_r == q_l:
            continue
        tailed += 1
        assert {core[0] - core[1] for core in chain_cores(node.core, 30, node.word)} == {
            q_r - q_l}
    assert tailed == 2394


def test_a_record_mismatch_past_double_precision_quotes_the_decimal():
    node = node_at(["UL"] * 40)
    q_c = node.core[0] + node.core[1]
    assert q_c > 2 ** 53
    record = dict(node_record(node), qc=str(q_c + 1))
    with pytest.raises(InvariantViolation,
                       match=f"^record field qc: '{q_c + 1}' != '{q_c}'$"):
        node_from_record(record)
    with pytest.raises(InvariantViolation, match=f"^record field qc: {q_c + 1} != '{q_c}'$"):
        node_from_record(dict(record, qc=q_c + 1))


def test_a_bad_chain_letter_after_13000_letters_has_a_short_error():
    word = parse_word(lcg_word(13000, 3))
    q_r, q_l = node_at(word).core[:2]
    against = K.C_CL if q_r > q_l else K.C_CR
    with pytest.raises(TailDirectionMismatch) as got:
        node_at(word + (against,))
    assert str(got.value).endswith(
        f"state has (<{q_r.bit_length()}-bit integer>, <{q_l.bit_length()}-bit integer>)")
    assert len(str(got.value)) < 300
