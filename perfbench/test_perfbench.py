"""Smoke tests of the benchmark harness at tiny sizes (no timing gates).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from butterfly_tree import tree  # noqa: E402
from butterfly_tree.generators import GeneratorKind, canonical_matrices  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_appears(workload, trace, tmp_path):
    result = run.measure(workload, 7, 0, trace, workloads.TINY, out_dir=tmp_path)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert (tmp_path / "runs" / f"{workload}-seed7-trace{int(trace)}.json").is_file()
    if not trace:
        s = result["samples"]
        scale = run.REFERENCE_S / (sum(s["reference_s"]) / len(s["reference_s"]))
        raw_wall = sum(s["raw_wall_s"]) / len(s["raw_wall_s"])
        assert result["metrics"]["wall_s"]["value"] == pytest.approx(raw_wall * scale)
        assert len(s["raw_setup_s"]) >= run.SETUP_PROBES


def test_wrong_digest_counts_as_failure(tmp_path, monkeypatch):
    key = "expand --depth 3 --chain-cap 2"
    sha, size, items = workloads.GOLDEN[key]
    monkeypatch.setitem(workloads.GOLDEN, key, ("0" * 64, size, items))
    result = run.measure("expand", 1, 0, False, workloads.TINY, out_dir=tmp_path)
    passes = result["attempted"] // len(workloads.invocations("expand", 1, workloads.TINY))
    assert result["failed"] == passes
    assert not result["correct"]
    assert result["failures"][0]["status"] == "wrong"


def test_strict_json_rejects_non_finite():
    for text in ('{"value": Infinity}', '{"value": NaN}', '[-Infinity]'):
        with pytest.raises(checks.NoAnswer):
            checks.strict_json(text)
    assert checks.strict_json('{"value": 1.5}') == {"value": 1.5}


def _node_output(word: str) -> bytes:
    return (json.dumps(tree.node_record(tree.node_at(word))) + "\n").encode()


def test_deep_checks_accept_the_program_and_reject_tampering():
    word = workloads.deep_words(3, workloads.TINY)[1]
    inv = workloads.Invocation(("node", f"--word={word}"), 1, "node", word)
    good = _node_output(word)
    assert checks.verdict(inv, 0, "", len(good), good, "") == ("ok", "")
    record = json.loads(good)
    record["qc"] += 2
    bad = (json.dumps(record) + "\n").encode()
    assert checks.verdict(inv, 0, "", len(bad), bad, "")[0] == "wrong"
    assert checks.verdict(inv, 2, "", 0, b"", "error: boom\n") == ("no-answer", "exit 2: error: boom")


def test_word_draw_uses_the_generators_2x2_blocks():
    for token, step in workloads._STEP_2X2.items():
        (a, b), (c, d) = canonical_matrices(GeneratorKind.from_token(token)).two_by_two
        assert step(5, 3) == (a * 5 + b * 3, c * 5 + d * 3)
        assert step(3, 5) == (a * 3 + b * 5, c * 3 + d * 5)
    word = workloads.draw_word(random.Random(0), 300)
    node = tree.node_at(word)  # raises on an invalid chain letter
    assert node.depth == 300
    assert workloads.deep_words(5) == workloads.deep_words(5)


def test_compare_verdicts():
    a = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [x * 0.8 for x in a]
    slower = [x * 1.3 for x in a]
    same = list(reversed(a))
    assert compare.verdict(a, faster, list(zip(a, faster)), True, 0.1)[1] == "better"
    assert compare.verdict(a, slower, list(zip(a, slower)), True, 0.1)[1] == "worse"
    assert compare.verdict(a, same, list(zip(a, same)), True, 0.1)[1] == "within"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, a, list(zip(noisy, a)), True, 0.1)[1] == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "expand",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
