"""Invariants must survive `python -O`, which strips `assert` statements."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"


def _asserting_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node


def test_no_assert_in_sources():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in _asserting_nodes(tree)]
    assert found == []


def _optimized(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-O", "-m", "butterfly_tree.cli"] + argv,
                          capture_output=True, env=env, timeout=120)


def test_verify_under_optimize_flag():
    proc = _optimized(["verify", "--depth", "3", "--chain-cap", "2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"verified 343 nodes: all invariants hold\n"


def test_expand_under_optimize_flag():
    argv = "expand --depth 3 --chain-cap 2"
    proc = _optimized(argv.split())
    assert proc.returncode == 0, proc.stderr
    assert (hashlib.sha256(proc.stdout).hexdigest(), len(proc.stdout)) == GOLDEN[argv]
