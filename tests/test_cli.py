"""End-to-end checks of the command-line interface via cli.main()."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from butterfly_tree import scaling, skeleton, tree
from butterfly_tree.cli import main
from butterfly_tree.errors import MalformedRecord, NoTail
from butterfly_tree.generators import GeneratorKind, step_core
from test_golden import BIG_CHAIN_ARGV, BIG_NODE_ARGV, GOLDEN, lcg_word, short_id
from test_tree import step_fold


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_node_command(capsys):
    code, out, _ = run(capsys, "node", "--word", "UL.UL")
    assert code == 0
    assert json.loads(out) == {
        "word": "UL.UL", "qR": 5, "qL": 8, "dSigma": -3,
        "pL": 3, "pR": 2, "pc": 5, "qc": 13,
        "sigmaPlus": 5, "sigmaMinus": 8,
        "cellClass": "E-cell", "tailDirection": "left", "depth": 2,
    }


def test_node_root(capsys):
    code, out, _ = run(capsys, "node", "--word", "")
    assert code == 0
    record = json.loads(out)
    assert (record["word"], record["qc"], record["depth"]) == ("", 2, 0)
    assert record["cellClass"] == "root"


def test_expand_jsonl_and_determinism(capsys):
    code, out, _ = run(capsys, "expand", "--depth", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    first = json.loads(lines[0])
    assert (first["word"], first["qc"]) == ("", 2)
    assert [json.loads(l)["word"] for l in lines[1:]] == [
        "CL", "CR", "UL", "UR", "DL", "DR"]
    code2, out2, _ = run(capsys, "expand", "--depth", "1")
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize("limits", [tree.ExpansionLimits(3, 0), tree.ExpansionLimits(3, 2),
                                    tree.ExpansionLimits(4, 1, max_qc=40)])
def test_expand_bytes_equal_the_node_writers(capsys, limits):
    argv = ["expand", "--depth", str(limits.max_depth),
            "--chain-cap", str(limits.chain_cap)]
    if limits.max_qc is not None:
        argv += ["--max-qc", str(limits.max_qc)]
    for fmt, write in (("jsonl", tree.write_jsonl), ("csv", tree.write_csv)):
        want = io.StringIO()
        write(tree.expand(limits), want)
        assert run(capsys, *argv, "--format", fmt) == (0, want.getvalue(), "")


def test_render_bytes_equal_render_svg_of_the_nodes(capsys):
    limits = tree.ExpansionLimits(3, 2, max_qc=40)
    want = skeleton.render_svg(tree.expand(limits))
    assert run(capsys, "render", "--depth", "3", "--chain-cap", "2",
               "--max-qc", "40") == (0, want, "")
    ET.fromstring(want)


# The benchmark's `views` render: its SHA-256 and size, as in perfbench/workloads.py.
VIEWS_RENDER = ("ea52fc942b28f7d099c56fa1ad415645d7831a66f079d9c5d6413469dfaff70b", 2_291_788)


def test_render_streams_its_document(tmp_path):
    # The parts leave in blocks as they are made, so the peak stays under twice
    # the document; a document built whole, then written, peaks at 4.3 times it.
    path = tmp_path / "skeleton.svg"
    tracemalloc.start()
    try:
        code = main(["render", "--depth", "4", "--chain-cap", "2", "-o", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    document = path.read_bytes()
    assert (code, (hashlib.sha256(document).hexdigest(), len(document))) == (0, VIEWS_RENDER)
    assert peak < 2 * len(document), peak
    ET.fromstring(document)


class _CountingStdout:
    """A stdout that keeps each write, to count the calls."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)


@pytest.mark.parametrize("argv, pin", [
    ("expand --depth 5 --chain-cap 2", GOLDEN["expand --depth 5 --chain-cap 2"]),
    ("wannier --qmax 60", GOLDEN["wannier --qmax 60"]),
    ("render --depth 4 --chain-cap 2", VIEWS_RENDER)])
def test_streams_reach_stdout_in_blocks_of_64_ki_characters(monkeypatch, argv, pin):
    # Unbuffered (PYTHONUNBUFFERED=1), each write to stdout is a system call.
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(argv.split())
    monkeypatch.undo()
    text = "".join(stdout.chunks)
    assert code == 0
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == pin
    assert len(stdout.chunks) <= -(-len(text) // 65_536) + 1
    assert all(len(chunk) >= 65_536 for chunk in stdout.chunks[:-1])


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expand_holds_one_level_of_the_walk(tmp_path):
    # 14 328 nodes sit on the last level at d5/c2; the walk never stores it,
    # and the level above it is 2 395 nodes.
    path = tmp_path / "nodes.jsonl"
    code, peak = _traced_peak(["expand", "--depth", "5", "--chain-cap", "2",
                               "-o", str(path)])
    document = path.read_bytes()
    assert (code, (hashlib.sha256(document).hexdigest(), len(document))) == (
        0, GOLDEN["expand --depth 5 --chain-cap 2"])
    assert peak < 2_000_000, peak


def test_verify_holds_no_level_of_nodes(capsys):
    code, peak = _traced_peak(["verify", "--depth", "5", "--chain-cap", "2"])
    assert (code, capsys.readouterr().out) == (0, "verified 16723 nodes: all invariants hold\n")
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("flags, error", [
    (["--palette", "a&b,b,c,d,e,f,g,h"],
     "palette color 1 is not #rgb, #rrggbb or a name of ASCII letters: 'a&b'"),
    (["--palette", '#000,"/><script>alert(1)</script><x a=",c,d,e,f,g,h'],
     "palette color 2 is not #rgb, #rrggbb or a name of ASCII letters: "
     "'\"/><script>alert(1)</script><x a=\"'"),
    (["--palette", "#000,#111,#222,#333,#444,#555,#666"], "palette must have exactly 8 colors"),
    (["--margin", "-5"], "margin must be >= 0"),
    (["--depth", "-1"], "limits must be non-negative"),
], ids=["ampersand", "markup", "seven-colors", "negative-margin", "negative-depth"])
def test_render_rejects_bad_options_before_any_output(capsys, tmp_path, flags, error):
    target = tmp_path / "out.svg"
    for output in ([], ["-o", str(target)]):
        argv = ["render", "--depth", "1", *flags, *output]
        assert run(capsys, *argv) == (2, "", f"error: {error}\n")
    assert not target.exists()


def test_render_cut_by_an_io_failure_leaves_a_partial_file(tmp_path):
    # A child whose files may not pass 16 KiB (RLIMIT_FSIZE on itself alone):
    # the write past it fails with EFBIG, after the first 16 KiB reached the
    # file, and the run exits 3 as `expand` does.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_FSIZE"):
        pytest.skip("no RLIMIT_FSIZE")
    limit = 16 * 1024
    target = tmp_path / "cut.svg"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "butterfly_tree.cli", "render", "--depth", "2",
         "--chain-cap", "1", "-o", str(target)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.decode().startswith("i/o error: [Errno 27]")
    whole = skeleton.render_svg(tree.expand(tree.ExpansionLimits(2, 1))).encode()
    assert target.read_bytes() == whole[:limit]


def test_running_out_of_memory_is_an_error_line(tmp_path):
    # A child whose address space is capped at 256 MiB (RLIMIT_AS on itself
    # alone) builds the rows of a chain of 10^8 members until an allocation fails.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS")
    limit = 256 * 1024 * 1024
    target = tmp_path / "chain.jsonl"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "butterfly_tree.cli", "chain", "--word=UL",
         "--steps", "100000000", "-o", str(target)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr == b"error: out of memory\n"
    assert not target.exists()


@pytest.mark.parametrize("stdout", ["full", "pipe"])
@pytest.mark.parametrize("argv", [
    "node --word=UL", "chain --word=UL --steps 3", "verify --depth 2", "scaling --word=UL",
    "apollonian --correspondence", "pyth --depth 3", "pyth --oracle-cmax 50",
    "expand --depth 1", "expand --depth 5 --chain-cap 2"])
def test_a_failed_buffered_stdout_exits_3_with_one_line(argv, stdout):
    # With PYTHONUNBUFFERED unset, Python's default, a small output is still
    # in stdout's buffer when `main` returns.  `cli.entry` flushes it, so its
    # failure is the one I/O error line and exit 3, not a traceback at
    # interpreter exit and code 120.
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if stdout == "full":
        fd, errno = os.open("/dev/full", os.O_WRONLY), 28
    else:
        read, fd = os.pipe()
        os.close(read)
        errno = 32
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    try:
        proc = subprocess.run([sys.executable, "-m", "butterfly_tree.cli", *argv.split()],
                              stdout=fd, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(fd)
    assert proc.returncode == 3
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"i/o error: [Errno {errno}] "), lines


def test_expand_csv_and_file_output(capsys, tmp_path):
    path = tmp_path / "nodes.csv"
    code, out, _ = run(capsys, "expand", "--depth", "2", "--chain-cap", "1",
                       "--format", "csv", "-o", str(path))
    assert code == 0 and out == ""
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == ",".join(tree.RECORD_FIELDS)
    with open(path, encoding="utf-8", newline="") as fp:
        nodes = tree.read_csv(fp)
    assert len(nodes) == 49


def test_verify_command(capsys):
    code, out, err = run(capsys, "verify", "--depth", "2", "--chain-cap", "1")
    assert code == 0 and err == ""
    assert out.strip() == "verified 49 nodes: all invariants hold"


def test_verify_hands_each_node_its_parent_and_lists_failures(capsys, monkeypatch):
    real = tree.verify_node
    parents = []

    def tampered(node, parent=None):
        parents.append((node.word, None if parent is None else parent.word))
        report = real(node, parent)
        if report.word in ("", "CL.TR"):
            return report._replace(failures=("first", "second"))
        return report

    monkeypatch.setattr(tree, "verify_node", tampered)
    code, out, err = run(capsys, "verify", "--depth", "2", "--chain-cap", "1")
    assert (code, out) == (1, "")
    assert err == ("FAIL root: first; second\nFAIL CL.TR: first; second\n"
                   "verified 49 nodes: 2 failed\n")
    limits = tree.ExpansionLimits(max_depth=2, chain_cap=1)
    assert parents == [(n.word, n.word[:-1] if n.word else None)
                       for n in tree.expand(limits)]


def test_chain_command(capsys):
    code, out, _ = run(capsys, "chain", "--word", "CL", "--steps", "2")
    assert code == 0
    records = [json.loads(l) for l in out.splitlines()]
    assert [r["word"] for r in records] == ["CL.TR", "CL.TR.TR"]
    assert [(r["qR"], r["qL"], r["dSigma"]) for r in records] == [
        (5, 3, 0), (7, 5, 0)]


# 40 U letters take the integers past 2^53, then a C letter and its chain
# letter set the tail's side.
LEFT_TAIL = ".".join(["UR"] * 40 + ["CR", "TL"])
RIGHT_TAIL = ".".join(["UL"] * 40 + ["CL", "TR"])


@pytest.mark.parametrize("word, side", [(LEFT_TAIL, "left"), (RIGHT_TAIL, "right")],
                         ids=["left-tail", "right-tail"])
@pytest.mark.parametrize("steps", [0, 1, 50])
def test_chain_bytes_equal_the_node_writer(capsys, word, side, steps):
    node = tree.node_at(word)
    assert node.tail_direction == side and node.state.q_r > 2 ** 53
    want = io.StringIO()
    assert tree.write_jsonl(tree.chain(node, steps), want) == steps
    assert run(capsys, "chain", "--word", word, "--steps", str(steps)) == (
        0, want.getvalue(), "")


INT_FIELDS = ("qR", "qL", "dSigma", "pL", "pR", "pc", "qc", "sigmaPlus", "sigmaMinus")


def record_ints(core):
    """The integer fields of a record, from its core."""
    q_r, q_l, s_p, s_m, p_r, p_l = core
    return dict(zip(INT_FIELDS, (q_r, q_l, s_p - s_m, p_l, p_r, p_l + p_r, q_r + q_l,
                                 s_p, s_m)))


def json_int(n):
    return n if abs(n) < 2 ** 53 else str(n)


@pytest.mark.parametrize("length, seed", [(1, 1), (2, 2), (40, 3), (999, 4), (3000, 5)])
def test_chain_rows_equal_a_step_core_fold(capsys, length, seed):
    word = lcg_word(length, seed)
    core = step_fold(tree.parse_word(word))
    tail = GeneratorKind.C_CR if core[0] > core[1] else GeneratorKind.C_CL
    side = "right" if core[0] > core[1] else "left"
    code, out, err = run(capsys, "chain", "--steps", "4", f"--word={word}")
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    for depth, row in enumerate(rows, length + 1):
        core, word = step_core(tail, core), f"{word}.{tail.token}"
        want = {key: json_int(n) for key, n in record_ints(core).items()}
        want.update(word=word, cellClass="chain", tailDirection=side, depth=depth)
        assert row == want


def digit_limit():
    """The interpreter's int/str digit limit, 0 where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextlib.contextmanager
def unlimited_digits():
    """Lift the interpreter's int/str digit limit, where it has one, in the block."""
    limit = digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_node_and_chain_print_integers_past_the_digit_limit(capsys):
    limit = digit_limit()
    outputs = [run(capsys, *argv.split()) for argv in (BIG_NODE_ARGV, BIG_CHAIN_ARGV)]
    assert [(code, err) for code, _, err in outputs] == [(0, ""), (0, "")]
    assert digit_limit() == limit
    word = BIG_NODE_ARGV.split("=", 1)[1]
    node = tree.node_at(word)
    cores = [node.state.core] + [m.state.core for m in tree.chain(node, 2)]
    csv_text = io.StringIO()
    tree.write_csv([node], csv_text)
    with pytest.raises(MalformedRecord) as info:
        tree.read_jsonl(io.StringIO(outputs[0][1]))  # the limit still guards input
    assert re.fullmatch(r"line 1: field qR is not an integer: '\d{39}\.\.\. "
                        r"\(\d{4} characters\)", str(info.value))
    assert len(str(info.value)) < 200
    with unlimited_digits():
        assert len(str(node.state.q_r)) > 4_300
        records = [json.loads(line) for _, out, _ in outputs for line in out.splitlines()]
        assert [{key: int(r[key]) for key in INT_FIELDS} for r in records] == [
            record_ints(core) for core in cores]
        assert csv_text.getvalue().splitlines()[1].split(",")[1:10] == [
            str(n) for n in record_ints(node.state.core).values()]


# A chain letter against the tail of the 14 000-letter word (its q_R > q_L).
# The error names the denominators, past the digit limit, by bit length, and
# the prefix by the letter's number and both ends.
BIG_WORD = BIG_NODE_ARGV.split("=", 1)[1]
AGAINST_THE_TAIL = [f"node --word={BIG_WORD}.TL", f"chain --steps 2 --word={BIG_WORD}.TL"]
AGAINST_THE_TAIL_ERROR = ("error: word fails at letter 14001 (TL) of prefix UR.UR.DR.CL ... "
                          "UR.TR.TR.TL: C_cL needs q_L > q_R, state has "
                          "(<14745-bit integer>, <14744-bit integer>)\n")


@pytest.mark.parametrize("argv", AGAINST_THE_TAIL, ids=short_id)
def test_a_tail_error_past_the_digit_limit_exits_1(capsys, argv):
    assert run(capsys, *argv.split()) == (1, "", AGAINST_THE_TAIL_ERROR)


def test_chain_errors_come_before_any_output(capsys, tmp_path):
    path = tmp_path / "chain.jsonl"
    assert run(capsys, "chain", "--word=", "--steps", "2", "-o", str(path)) == (
        1, "", "error: root has no tail\n")
    assert not path.exists()
    assert run(capsys, "chain", "--word=", "--steps", "0") == (
        1, "", "error: root has no tail\n")
    assert run(capsys, "chain", "--word=", "--steps", "-1") == (
        2, "", "error: steps must be non-negative, got -1\n")
    with pytest.raises(NoTail, match="root has no tail"):
        tree.chain(tree.root(), 0)
    with pytest.raises(ValueError, match="got -1"):
        tree.chain(tree.root(), -1)


def test_node_accepts_mixed_spellings(capsys):
    want = run(capsys, "node", "--word=UL.TL.DR.CR.TL")
    assert run(capsys, "node", "--word", " ul, c_cl.Dr  C_R,tl ") == want


def test_pyth_tree_stream(capsys):
    code, out, _ = run(capsys, "pyth", "--depth", "1")
    assert code == 0
    triples = {json.loads(l)["word"]: (json.loads(l)["a"], json.loads(l)["b"],
                                       json.loads(l)["c"])
               for l in out.splitlines()}
    assert triples == {"": (3, 4, 5), "1": (5, 12, 13),
                       "2": (21, 20, 29), "3": (15, 8, 17)}


def test_pyth_oracle_comparison(capsys):
    code, out, _ = run(capsys, "pyth", "--oracle-cmax", "100")
    assert code == 0
    report = json.loads(out)
    assert report == {"cMax": 100, "treeCount": 16, "oracleCount": 16,
                      "match": True}


def test_pyth_oracle_row_goes_to_the_output_file(capsys, tmp_path):
    path = tmp_path / "oracle.json"
    code, out, err = run(capsys, "pyth", "--oracle-cmax", "100", "-o", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_text(encoding="utf-8") == (
        '{"cMax": 100, "treeCount": 16, "oracleCount": 16, "match": true}\n')


def test_apollonian_word_application(capsys):
    code, out, _ = run(capsys, "apollonian", "--quad", "1,9,16,0",
                       "--word", "S4")
    assert code == 0
    assert json.loads(out) == {"input": [1, 9, 16, 0], "word": "S4",
                               "result": [1, 9, 16, 52]}
    code, out, _ = run(capsys, "apollonian", "--quad=-1,2,2,3",
                       "--word", "S1.S1")
    assert code == 0
    assert json.loads(out)["result"] == [-1, 2, 2, 3]
    assert run(capsys, "apollonian", "--quad=-1,2,2,3", "--word", "A1.S2.A3.S4.A2") == (
        0, '{"input": [-1, 2, 2, 3], "word": "A1.S2.A3.S4.A2", "result": [9, -4, 8, 17]}\n',
        "")


def test_apollonian_correspondence_report(capsys):
    code, out, _ = run(capsys, "apollonian", "--correspondence")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"h1", "h2", "h3", "U_L", "U_R"}
    for step in report.values():
        assert step["pairsTested"] > 0
        assert step["matches"]
        for match in step["matches"]:
            assert match["word"] and sorted(match["permutation"]) == [0, 1, 2, 3]


def test_apollonian_usage_errors(capsys):
    # Every usage error takes `main`'s one form: "error: ..." and exit 2.
    for argv, code, err in [
            ("", 2, "apollonian needs either --correspondence or both --quad and --word"),
            ("--quad 1,9,16,0 --word X9", 2,
             "bad Apollonian token 'X9' (use S1..S4 or A1..A4)"),
            ("--quad 1,9,x,0 --word S1", 2, "--quad entry 3 is not an integer: 'x'"),
            ("--quad 1,9,16 --word S1", 2, "--quad needs exactly four comma-separated integers"),
            ("--quad 1,1,1,1 --word S1", 1, "Descartes identity fails for (1, 1, 1, 1)")]:
        assert run(capsys, "apollonian", *argv.split()) == (code, "", f"error: {err}\n")


def test_apollonian_bad_tokens_and_entries_are_named(capsys):
    for word, token in [("Sx", "SX"), ("S", "S"), ("A", "A"), ("X1", "X1"), ("S1.Q2", "Q2"),
                        ("S-1", "S-1")]:
        assert run(capsys, "apollonian", "--quad=-1,2,2,3", "--word", word) == (
            2, "", f"error: bad Apollonian token {token!r} (use S1..S4 or A1..A4)\n")
    assert run(capsys, "apollonian", "--quad", "1,x,2,3", "--word", "S1") == (
        2, "", "error: --quad entry 2 is not an integer: 'x'\n")
    assert run(capsys, "apollonian", "--quad", "1,9,16,0", "--word", "S5") == (
        2, "", "error: S index must be 1..4, got 5\n")


def test_scaling_command(capsys):
    code, out, _ = run(capsys, "scaling", "--word", "UL")
    assert code == 0
    report = json.loads(out)
    assert report["word"] == "UL"
    assert report["trace"] == 3
    assert report["surd"] == {"trace": 3, "discriminant": 5}
    assert abs(report["value"] - 2.618033988749895) < 1e-12
    cf = report["continuedFraction"]
    assert (cf["preperiod"], cf["period"]) == ([2], [1])
    assert len(cf["terms"]) == 12
    assert run(capsys, "scaling", "--word", "CL")[0] == 1


def test_scaling_folds_the_word_block_once(capsys, monkeypatch):
    calls = []

    def counted(word):
        calls.append(len(word))
        return real(word)

    real = scaling.word_block
    monkeypatch.setattr(scaling, "word_block", counted)
    code, out, err = run(capsys, "scaling", "--word", "CL.CL.CL.TL", "--cf-terms", "3")
    assert (code, err, calls) == (0, "", [4])
    report = json.loads(out)
    assert (report["trace"], report["surd"]) == (-4, {"trace": 4, "discriminant": 12})
    assert report["continuedFraction"]["terms"] == [3, 1, 2]
    calls.clear()
    code, out, err = run(capsys, "scaling", "--word", "TL.TR")
    assert (code, out, calls) == (1, "", [2])
    assert err == "error: trace 2: no hyperbolic exponent for ['C_cL', 'C_cR']\n"


def test_a_long_parabolic_word_gets_a_bounded_error_line(capsys):
    tokens, names = ["TL", "TR"] * 5_000, ["C_cL", "C_cR"] * 5_000
    for letters in (20, 21, 10_000):
        named = names[:letters] if letters <= 20 else (
            f"{letters} letters {names[:4]} ... {names[letters - 4:letters]}")
        assert run(capsys, "scaling", "--word=" + ".".join(tokens[:letters])) == (
            1, "", f"error: trace 2: no hyperbolic exponent for {named}\n")


def test_pyth_rejects_negative_depth(capsys, tmp_path):
    assert run(capsys, "pyth", "--depth", "-1") == (
        2, "", "error: max_depth must be non-negative\n")
    target = tmp_path / "triples.jsonl"
    assert run(capsys, "pyth", "--depth", "-1", "-o", str(target)) == (
        2, "", "error: max_depth must be non-negative\n")
    assert not target.exists()


def test_wannier_command(capsys):
    code, out, _ = run(capsys, "wannier", "--qmax", "2")
    assert code == 0
    assert json.loads(out) == {"sigma": 1, "tau": 0, "p": 1, "q": 2, "r": 1}
    code, out, _ = run(capsys, "wannier", "--qmax", "12")
    assert code == 0
    assert out.splitlines() == [
        json.dumps({"sigma": line.sigma, "tau": line.tau, "p": line.flux.numerator,
                    "q": line.flux.denominator, "r": line.r})
        for line in skeleton.wannier_lines(12)]


def test_wannier_rejects_small_qmax_before_any_output(capsys, tmp_path):
    assert run(capsys, "wannier", "--qmax", "1") == (
        2, "", "error: q_max must be at least 2\n")
    target = tmp_path / "lines.jsonl"
    assert run(capsys, "wannier", "--qmax", "1", "-o", str(target)) == (
        2, "", "error: q_max must be at least 2\n")
    assert not target.exists()


def test_render_command_and_determinism(capsys, tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert run(capsys, "render", "--depth", "1", "-o", str(first))[0] == 0
    assert run(capsys, "render", "--depth", "1", "-o", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text(encoding="utf-8").startswith("<?xml")
    ET.fromstring(first.read_bytes())


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "node", "--word", "TL")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "node", "--word", "UL.XX")
    assert code == 2 and err.startswith("error:")
    missing = tmp_path / "missing" / "out.svg"
    code, _, err = run(capsys, "render", "--depth", "1", "-o", str(missing))
    assert code == 3 and err.startswith("i/o error:")
    assert run(capsys, "node")[0] == 2


def test_chain_rejects_negative_steps(capsys):
    code, out, err = run(capsys, "chain", "--word", "CL", "--steps", "-3")
    assert code == 2 and out == ""
    assert err == "error: steps must be non-negative, got -3\n"


def test_help_explains_chain_letters(capsys):
    code, out, _ = run(capsys, "node", "--help")
    assert code == 0
    assert "TL/TR are the chain letters" in " ".join(out.split())
