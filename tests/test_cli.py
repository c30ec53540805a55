"""End-to-end checks of the command-line interface via cli.main()."""

import io
import json

import pytest

from butterfly_tree import skeleton, tree
from butterfly_tree.cli import main


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


def test_chain_command(capsys):
    code, out, _ = run(capsys, "chain", "--word", "CL", "--steps", "2")
    assert code == 0
    records = [json.loads(l) for l in out.splitlines()]
    assert [r["word"] for r in records] == ["CL.TR", "CL.TR.TR"]
    assert [(r["qR"], r["qL"], r["dSigma"]) for r in records] == [
        (5, 3, 0), (7, 5, 0)]


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
    assert run(capsys, "apollonian")[0] == 2
    assert run(capsys, "apollonian", "--quad", "1,9,16,0",
               "--word", "X9")[0] == 2
    assert run(capsys, "apollonian", "--quad", "1,9,x,0",
               "--word", "S1")[0] == 2
    assert run(capsys, "apollonian", "--quad", "1,9,16",
               "--word", "S1")[0] == 2
    assert run(capsys, "apollonian", "--quad", "1,1,1,1",
               "--word", "S1")[0] == 1


def test_apollonian_bad_tokens_and_entries_are_named(capsys):
    for word in ("Sx", "S", "A", "X1", "S1.Q2", "S-1"):
        code, out, err = run(capsys, "apollonian", "--quad=-1,2,2,3",
                             "--word", word)
        assert code == 2 and not out
        assert "bad Apollonian token" in err and "use S1..S4 or A1..A4" in err
        assert "invalid literal" not in err
    code, out, err = run(capsys, "apollonian", "--quad", "1,x,2,3",
                         "--word", "S1")
    assert code == 2 and not out
    assert err == "--quad entry 2 is not an integer: 'x'\n"
    code, _, err = run(capsys, "apollonian", "--quad", "1,9,16,0",
                       "--word", "S5")
    assert code == 2 and "S index must be 1..4" in err


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
