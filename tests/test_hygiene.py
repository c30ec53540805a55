"""Invariants must survive `python -O`, which strips `assert` statements:
the verify line and the expand and bignum-word goldens (the 14 000-letter
`node` and `chain` ones too) are checked under it, and so is the error of a
chain letter against the tail of that word.
The package must load only what a command uses (the view commands that walk
no tree load no tree, the integer commands load no Fraction view, and
nothing imports `dataclasses`: every record, the Fraction views' too, is a
named tuple), load those views from `farey` alone, through the one hook in
`generators`, on first touch with the same texts and only when one is asked for (a bad step's error and the skeleton's
cells read the integer core), keep its public names, define no function or
class that only the tests use (the tests' references live in
`tests/oracles.py`, each used by a test), and read the generator step
coefficients only in the step's homes."""

import argparse
import ast
import hashlib
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import butterfly_tree
from butterfly_tree.cli import build_parser
from butterfly_tree.generators import GeneratorKind
from test_cli import AGAINST_THE_TAIL, AGAINST_THE_TAIL_ERROR
from test_golden import (BIG_CHAIN_ARGV, BIG_NODE_ARGV, CHAIN_ARGV, GOLDEN,
                         SCALING_ARGV, short_id)

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


def test_no_source_imports_dataclasses():
    # One record idiom: every record is a named tuple.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
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


@pytest.mark.parametrize("argv", [SCALING_ARGV, CHAIN_ARGV, BIG_NODE_ARGV, BIG_CHAIN_ARGV],
                         ids=short_id)
def test_bignum_words_under_optimize_flag(argv):
    proc = _optimized(argv.split())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (hashlib.sha256(proc.stdout).hexdigest(), len(proc.stdout)) == GOLDEN[argv]


@pytest.mark.parametrize("argv", AGAINST_THE_TAIL, ids=short_id)
def test_bignum_tail_error_under_optimize_flag(argv):
    proc = _optimized(argv.split())
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == AGAINST_THE_TAIL_ERROR


# The public names, by the submodule that defines them and is their one import
# path: those of the first release less `representation_consistency`, whose
# cross-route is now the property test's own (test_generators.py).  The
# package root re-exports none of them.
PUBLIC_NAMES = {
    "errors": ["ButterflyError", "DegenerateDifference", "EmptyInput",
               "InconsistentChernPair", "InvariantViolation", "NoTail", "NotCCell",
               "NotCoprime", "ParabolicWord", "TailDirectionMismatch"],
    "farey": ["FriendlyTriplet", "farey_difference", "is_friendly", "mediant",
              "stern_brocot_friendly_triplets"],
    "diophantine": ["BandLabel", "GapLabel", "band_cherns", "center_gap_index",
                    "gap_labels", "hierarchy_gap_cherns", "recover_edges"],
    "generators": ["BABY_KINDS", "ButterflyLabel", "ButterflyState", "GeneratorKind",
                   "GeneratorMatrix", "apply_label", "apply_state", "canonical_matrices"],
    "tree": ["ExpansionLimits", "TreeNode", "chain", "children", "expand", "node_at",
             "parse_word", "root", "verify_node", "word_string"],
    "pythagoras": ["EuclidPair", "PythTriple", "apply_H", "apply_h", "cbranch_to_triple",
                   "euclid_to_triple", "primitive_triple_oracle", "triple_tree"],
    "apollonian": ["DescartesQuadruple", "adjoint_S", "apply_S", "correspondence_search",
                   "ford_quadruple", "super_orbit", "triple_to_quadruple"],
    "scaling": ["ContinuedFraction", "QuadraticSurd", "cf_expansion", "scaling_exponent",
                "word_block"],
    "skeleton": ["RenderOptions", "SkeletonCell", "WannierLine", "cell_geometry",
                 "render_svg", "tail_triangle", "wannier_lines"],
}
ALL_NAMES = [name for names in PUBLIC_NAMES.values() for name in names]


# Imports the package alone, then writes the submodules it loaded and the
# names it holds that are not dunders, one line each, and its version.
_BARE_ROOT = ("import sys\n"
              "import butterfly_tree\n"
              "print(*sorted(m for m in sys.modules if m.startswith('butterfly_tree.')))\n"
              "print(*sorted(n for n in dir(butterfly_tree) if not n.startswith('__')))\n"
              "print(butterfly_tree.__version__)\n")


def test_public_names_are_unchanged():
    assert len(ALL_NAMES) == 67
    for module, names in PUBLIC_NAMES.items():
        defining = importlib.import_module(f"butterfly_tree.{module}")
        assert all(hasattr(defining, name) for name in names), module
    assert not any(hasattr(butterfly_tree, name) for name in ALL_NAMES)
    assert not hasattr(butterfly_tree, "__all__")
    proc = _python([], _BARE_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"\n\n{butterfly_tree.__version__}\n".encode()


def test_the_version_is_the_projects():
    # Python 3.10 has no tomllib, so the `version` line is read by a pattern.
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert butterfly_tree.__version__ == version


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_references(tree):
    """(module, attribute path) of every `butterfly_tree` name a module uses:
    `from butterfly_tree.m import x` and `m.x.y` where m is an imported submodule,
    or the same by a relative import inside the package."""
    modules = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level:
            source = f"butterfly_tree.{source}".rstrip(".")
        if source == "butterfly_tree":
            modules.update((a.asname or a.name, f"butterfly_tree.{a.name}") for a in node.names)
        elif source.startswith("butterfly_tree."):
            yield from ((source, (a.name,)) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            path, base = [], node
            while isinstance(base, ast.Attribute):
                path.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                yield modules[base.id], tuple(path)


def test_the_benchmark_uses_only_names_that_resolve():
    # A simplification must not delete a name the benchmark harness reads.
    seen, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, attrs in _package_references(ast.parse(path.read_text(encoding="utf-8"))):
            value = importlib.import_module(module)
            for i, attr in enumerate(attrs):
                if not hasattr(value, attr):
                    missing.append(f"{path.name}: {module}.{'.'.join(attrs[:i + 1])}")
                    break
                value = getattr(value, attr)
            seen.add(f"{module}.{attrs[0]}")
    assert missing == []
    assert {"butterfly_tree.generators.apply_state", "butterfly_tree.generators.apply_label",
            "butterfly_tree.generators.canonical_matrices", "butterfly_tree.intmat.mat_vec",
            "butterfly_tree.generators.ROOT_LABEL", "butterfly_tree.tree.verify_node"} <= seen


def _python(flags, code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *flags, "-c", code, *argv],
                          capture_output=True, env=env, timeout=120)


def test_submodule_import_from_a_fresh_interpreter():
    code = ("import sys\n"
            "from butterfly_tree import apollonian, intmat\n"
            "assert apollonian is sys.modules['butterfly_tree.apollonian']\n"
            "assert intmat is sys.modules['butterfly_tree.intmat']\n")
    proc = _python([], code)
    assert (proc.returncode, proc.stdout) == (0, b""), proc.stderr


VIEWS = {"butterfly_tree.skeleton", "butterfly_tree.apollonian",
         "butterfly_tree.pythagoras", "butterfly_tree.scaling"}

# Runs the CLI as `python -m butterfly_tree.cli ARGV` does, then writes the
# names of every loaded module as stderr's last line.
_LOADED = ("import runpy, sys\n"
           "try:\n"
           "    runpy.run_module('butterfly_tree.cli', run_name='__main__', alter_sys=True)\n"
           "finally:\n"
           "    print(*sorted(sys.modules), file=sys.stderr)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimize"])
@pytest.mark.parametrize("argv, views", [
    ("node --word=", set()),
    ("chain --word CL --steps 2", set()),
    ("expand --depth 2 --chain-cap 1", set()),
    ("verify --depth 2 --chain-cap 1", set()),
    ("scaling --word UL", {"butterfly_tree.scaling"}),
])
def test_commands_load_only_the_views_they_use(flags, argv, views):
    proc = _python(flags, _LOADED, *argv.split())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.decode().splitlines()[-1].split())
    assert "butterfly_tree.tree" in loaded
    assert loaded & VIEWS == views


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimize"])
@pytest.mark.parametrize("argv, absent", [
    ("pyth --oracle-cmax 50", {"butterfly_tree.tree"}),
    ("apollonian --correspondence", {"butterfly_tree.tree"}),
    ("wannier --qmax 10", {"butterfly_tree.tree", "butterfly_tree.generators",
                           "butterfly_tree.farey"}),
    ("render --depth 1", set()),
])
def test_view_commands_load_the_tree_only_when_they_walk_it(flags, argv, absent):
    proc = _python(flags, _LOADED, *argv.split())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.decode().splitlines()[-1].split())
    assert ("butterfly_tree.tree" in loaded) == (argv.split()[0] == "render")
    assert loaded & absent == set()


# The Fraction views and the formats that the integer commands never touch.
FRACTION_VIEWS = {"fractions", "decimal", "csv", "butterfly_tree.farey",
                  "butterfly_tree.diophantine"}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimize"])
@pytest.mark.parametrize("argv, absent", [
    ("node --word=", FRACTION_VIEWS),
    ("chain --word CL --steps 2", FRACTION_VIEWS | {"json"}),
    ("expand --depth 2 --chain-cap 1", FRACTION_VIEWS | {"json"}),
    ("scaling --word UL", FRACTION_VIEWS),
    ("verify --depth 2 --chain-cap 1", {"butterfly_tree.farey", "csv", "json"}),
    ("apollonian --correspondence", {"butterfly_tree.farey", "fractions"}),
    ("wannier --qmax 10", {"fractions"}),
])
def test_integer_commands_load_no_fraction_view(flags, argv, absent):
    proc = _python(flags, _LOADED, *argv.split())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.decode().splitlines()[-1].split())
    assert ("butterfly_tree.tree" in loaded) == (argv.split()[0] not in ("apollonian",
                                                                         "wannier"))
    assert loaded & absent == set()


def _subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


# One small run of each subcommand; a new subcommand fails below until it has one.
COMMAND_ARGV = {
    "node": "node --word=",
    "chain": "chain --word CL --steps 2",
    "expand": "expand --depth 2 --chain-cap 1",
    "verify": "verify --depth 2 --chain-cap 1",
    "scaling": "scaling --word UL",
    "pyth": "pyth --oracle-cmax 50",
    "apollonian": "apollonian --correspondence",
    "wannier": "wannier --qmax 10",
    "render": "render --depth 2 --chain-cap 1",
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimize"])
@pytest.mark.parametrize("command", _subcommands())
def test_no_command_loads_dataclasses(flags, command):
    # The records are named tuples, so neither `dataclasses` nor its
    # `inspect` loads.  `render` draws from the integer edges only.
    proc = _python(flags, _LOADED, *COMMAND_ARGV[command].split())
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.decode().splitlines()[-1].split())
    absent = {"dataclasses", "inspect"}
    if command == "render":
        absent |= {"fractions", "decimal", "butterfly_tree.farey"}
    assert loaded & absent == set()


_FIRST_TOUCH = """\
import sys
import butterfly_tree.generators as generators
lazy = {"butterfly_tree.farey", "fractions", "dataclasses"}
assert lazy.isdisjoint(sys.modules), lazy & set(sys.modules)
assert not hasattr(generators, "__path__")
try:
    generators.no_such_name
except AttributeError as exc:
    print(exc)
assert lazy.isdisjoint(sys.modules), lazy & set(sys.modules)
from butterfly_tree import farey
for name in ("ButterflyLabel", "ButterflyState", "GeneratorMatrix", "ROOT_LABEL",
             "ROOT_STATE", "apply_label", "apply_state", "canonical_matrices"):
    assert getattr(generators, name) is getattr(farey, name), name
print(farey.ROOT_STATE)
farey.ROOT_STATE.label, farey.ROOT_STATE.triplet
farey.canonical_matrices(generators.GeneratorKind.C_L)
assert {"dataclasses", "inspect"}.isdisjoint(sys.modules)
"""


def test_the_fraction_views_load_on_first_touch():
    proc = _python([], _FIRST_TOUCH)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "module 'butterfly_tree.generators' has no attribute 'no_such_name'",
        "ButterflyState(left=Fraction(0, 1), right=Fraction(1, 1), sigma_plus=1, "
        "sigma_minus=1)"]


# Runs the code, then writes the names of every loaded module as stderr's first line.
_MODULES_AFTER = ("import sys\n"
                  "try:\n"
                  "    exec(sys.argv[1])\n"
                  "finally:\n"
                  "    print(*sorted(sys.modules), file=sys.stderr)\n")


@pytest.mark.parametrize("code, text, absent", [
    ("from butterfly_tree.generators import _problems\n"
     "print(*_problems((3, 4, 4, 3, 1, 2)), sep='; ')",
     "edges out of order: 1/2, 1/3; edges not friendly: determinant 2", set()),
    ("from butterfly_tree.generators import GeneratorKind, step_core\n"
     "GeneratorKind.C_L.step = (1, 2, 0, 1, -9, 0, 0, 1)\n"
     "step_core(GeneratorKind.C_L, (1, 1, 1, 1, 1, 0))",
     "butterfly_tree.errors.InvariantViolation: C_L on (1, 1, 1, 1, 1, 0) produced a bad "
     "state: slopes must be positive: (-8, 2); slope sum -6 != q_c 4",
     {"butterfly_tree.farey", "dataclasses", "fractions"}),
    ("from butterfly_tree.diophantine import central_gap\n"
     "central_gap(2, 1, 4, 8)",
     "butterfly_tree.errors.InconsistentChernPair: slopes +2/-1 give gaps 0 != 1 at "
     "flux 1/2", set()),
], ids=["order", "bad-step", "chern-pair"])
def test_error_texts_that_load_their_fraction_view_first(code, text, absent):
    # Each text but the bad step's builds a Fraction that nothing has loaded
    # before; a bad step is worded from its integer core and loads no view.
    proc = _python([], _MODULES_AFTER, code)
    assert (proc.stdout or proc.stderr).decode().splitlines()[-1] == text
    assert set(proc.stderr.decode().splitlines()[0].split()) & absent == set()


@pytest.mark.parametrize("code, loaded", [
    ("skeleton.cell_geometry(tree.node_at('UL.TL'))", set()),
    ("skeleton.tail_triangle(tree.node_at('UL.TL'))", set()),
    ("tree.node_at('UL.TL').state", {"butterfly_tree.farey"}),
], ids=["cell_geometry", "tail_triangle", "state"])
def test_views_load_only_when_asked_for(code, loaded):
    # The skeleton's Fraction views read the core; only a state loads `farey`.
    proc = _python([], _MODULES_AFTER, "from butterfly_tree import skeleton, tree\n" + code)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stderr.decode().splitlines()[0].split())
    assert modules & {"butterfly_tree.farey", "dataclasses"} == loaded


def _imports(source):
    """(home, module) of each import in `source` that can run, the module by
    its full name: home is "<module>" for one that runs on load, a class
    body's too, else the outermost function that holds it.  A package module
    that `tree._module` loads counts as imported.  An import under
    `if TYPE_CHECKING:` never runs and is left out."""
    found = []

    def visit(nodes, home):
        for node in nodes:
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse, home)
                continue
            if isinstance(node, ast.Import):
                found.extend((home, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    source = f"butterfly_tree.{source}".rstrip(".")
                if source == "butterfly_tree":
                    found.extend((home, f"{source}.{alias.name}") for alias in node.names)
                else:
                    found.append((home, source))
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_module"
                  and isinstance(node.args[0], ast.Constant)):
                found.append((home, f"butterfly_tree.{node.args[0].value}"))
            inner = home
            if home == "<module>" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = node.name
            visit(ast.iter_child_nodes(node), inner)

    visit(ast.parse(source).body, "<module>")
    return found


def test_one_way_in_to_the_fraction_views():
    # `farey` holds every Fraction view: it alone imports `fractions` on load,
    # and the PEP 562 hook of `generators` alone imports it, so a command
    # that reads no view loads none.
    imports = {path.stem: _imports(path.read_text(encoding="utf-8"))
               for path in sorted((SRC / "butterfly_tree").glob("*.py"))}
    assert [stem for stem, found in imports.items()
            if ("<module>", "fractions") in found] == ["farey"]
    assert [f"{stem}.{home}" for stem, found in imports.items()
            for home, module in found if module == "butterfly_tree.farey"] == [
        "generators.__getattr__"]


def test_the_import_scan_skips_type_checking_and_finds_the_rest():
    source = ("from . import farey\n"
              "import fractions as f\n"
              "if TYPE_CHECKING:\n    from .farey import ButterflyState\n"
              "else:\n    from .tree import node_at\n"
              "class Record:\n    from fractions import Fraction\n"
              "    def view(self):\n        return _module('farey')\n"
              "def hook(name):\n    if name:\n        from .farey import mediant\n")
    assert _imports(source) == [
        ("<module>", "butterfly_tree.farey"), ("<module>", "fractions"),
        ("<module>", "butterfly_tree.tree"), ("<module>", "fractions"),
        ("view", "butterfly_tree.farey"), ("hook", "butterfly_tree.farey")]


def _definitions_without_a_use():
    """module.name of each module-level function or class in src/ that nothing
    outside its own body uses, other than a module hook such as `__getattr__`."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "butterfly_tree").glob("*.py"))
             + sorted(PERFBENCH.glob("*.py"))}
    used = {(module.rpartition(".")[2], attrs[0])
            for tree in trees.values() for module, attrs in _package_references(tree)}
    unused = []
    for path, tree in trees.items():
        if path.parent == PERFBENCH:
            continue
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("__") or (path.stem, stmt.name) in used:
                continue
            if not any(isinstance(node, ast.Name) and node.id == stmt.name
                       for other in tree.body if other is not stmt
                       for node in ast.walk(other)):
                unused.append(f"{path.stem}.{stmt.name}")
    return unused


def test_every_definition_is_used_or_public():
    # A definition that only the tests call is dead code in src/: delete it,
    # or move it to tests/oracles.py if the tests compare against it.
    public = {f"{module}.{name}" for module, names in PUBLIC_NAMES.items() for name in names}
    assert [name for name in _definitions_without_a_use() if name not in public] == []


TESTS = Path(__file__).resolve().parent


def test_every_oracle_is_used_by_a_test():
    # An oracle that no test calls checks nothing: delete it.
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    defined = {stmt.name for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                used.update(alias.name for alias in node.names)
    assert sorted(defined - used) == []


# Where a generator's step coefficients (`kind.step`) may be read, each
# with its reason: one step formula and one product of steps over a word,
# so no copy of either can drift.
STEP_HOMES = {
    "generators.step_core": "the one generator step on the integer core, checked in full",
    "generators._word_step": "the one product of steps over a word, balanced",
    "generators._check_steps": "the import-time check that every step block has determinant 1",
    "generators.<module>": "the import-time loop that sets each kind's step and its tables",
}

# The names that hold a generator in the package, and its members with their
# module aliases (`GeneratorKind.C_L`, `_C_L`).
GENERATOR_NAMES = {"kind", "_kind"} | {f"{prefix}{kind.name}" for kind in GeneratorKind
                                       for prefix in ("", "_")}


def _step_readers(source, stem):
    """The top-level homes in `source` that read a generator's `step`: the
    attribute on a name in GENERATOR_NAMES or on a member, such as
    `GeneratorKind.C_L.step`; a record's own `step` field is not one."""
    readers = set()
    for stmt in ast.parse(source).body:
        home = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and node.attr == "step":
                holder = node.value
                name = holder.attr if isinstance(holder, ast.Attribute) else getattr(
                    holder, "id", None)
                if name in GENERATOR_NAMES:
                    readers.add(f"{stem}.{home}")
    return readers


def test_only_the_step_homes_read_the_step_coefficients():
    readers = set()
    for path in sorted((SRC / "butterfly_tree").glob("*.py")):
        readers |= _step_readers(path.read_text(encoding="utf-8"), path.stem)
    assert sorted(readers) == sorted(STEP_HOMES)


def test_the_step_scan_flags_generators_and_not_a_record_field():
    # The scan once flagged `found.step`, a correspondence report's field.
    source = ("def record(found):\n    return found.step, found.report.step\n"
              "def letter(kind):\n    return kind.step[:4]\n"
              "def member():\n    return GeneratorKind.C_L.step, K.C_CR.step\n"
              "def alias():\n    return _D_R.step\n"
              "for _kind in GeneratorKind:\n    _kind.step = ()\n")
    assert _step_readers(source, "m") == {"m.letter", "m.member", "m.alias", "m.<module>"}
