"""Command-line interface.

Subcommands: expand, node, chain, verify, pyth, apollonian, scaling,
wannier, render.  Words are dot-separated tokens from {CL, CR, UL, UR,
DL, DR, TL, TR}; TL and TR are the chain ("tail") letters, applicable
only when the tail points that way.  Everything is deterministic: the
same flags always produce byte-identical output.

Exit codes: 0 success, 1 domain/invariant failure, 2 usage error, 3 I/O
failure, 4 out of memory.  `expand`, `pyth`, `wannier` and `render` stream,
so an I/O failure part way leaves a partial file; their usage errors come
before the output opens.  Every command that takes `-o` writes in blocks of
at least 64 Ki characters (`_Blocks`), one call each, so an unbuffered
stdout (`PYTHONUNBUFFERED=1`) makes one system call a block, not one a line.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, Optional, Sequence

# Every package module but `errors`, the tree included, and `json` are imported
# inside the handlers that use them, so start-up loads only what runs: `pyth`,
# `apollonian` and `wannier` never load the tree, `expand` and `verify` no `json`.
from .errors import ButterflyError


_BLOCK = 64 * 1024  # characters


class _Blocks:
    """Joins what it is given into blocks of at least `_BLOCK` characters and
    passes each to `write` once; `flush` passes on the rest.  A block is
    taken off before it is written, so a failed write is not retried."""

    __slots__ = ("_write", "_parts", "_size")

    def __init__(self, write) -> None:
        self._write, self._parts, self._size = write, [], 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= _BLOCK:
            self.flush()

    def writelines(self, lines) -> None:
        for text in lines:
            self.write(text)

    def flush(self) -> None:
        block = "".join(self._parts)
        self._parts, self._size = [], 0
        if block:
            self._write(block)


@contextlib.contextmanager
def _out_stream(path: Optional[str]) -> Iterator[_Blocks]:
    stdout = path is None or path == "-"
    with (contextlib.nullcontext(sys.stdout) if stdout
          else open(path, "w", encoding="utf-8", newline="")) as fp:
        blocks = _Blocks(fp.write)
        try:
            yield blocks
        finally:  # an error in the command still writes what came before it
            blocks.flush()


def _limits(args: argparse.Namespace):
    from .tree import ExpansionLimits
    return ExpansionLimits(max_depth=args.depth, chain_cap=args.chain_cap,
                           max_qc=args.max_qc)


def _cmd_expand(args: argparse.Namespace) -> int:
    from . import tree as tree_mod
    rows = tree_mod.expand_rows(_limits(args))
    with _out_stream(args.output) as fp:
        if args.format == "csv":
            tree_mod.write_csv_rows(rows, fp)
        else:
            tree_mod.write_jsonl_rows(rows, fp)
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    import json
    from . import tree as tree_mod
    node = tree_mod.node_at(args.word)
    with _out_stream(args.output) as fp:
        fp.write(json.dumps(tree_mod.node_record(node)) + "\n")
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    from . import tree as tree_mod
    # Every row is built before the output opens, so an error writes nothing.
    rows = list(tree_mod.chain_rows(tree_mod.node_at(args.word), args.steps))
    with _out_stream(args.output) as fp:
        tree_mod.write_jsonl_rows(rows, fp)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import tree as tree_mod
    # The walk hands each node its parent's core, which was verified before it.
    TreeNode = tree_mod.TreeNode
    count = 0
    bad = []
    for core, word, _, _, parent in tree_mod.walk(_limits(args)):
        report = tree_mod.verify_node(
            TreeNode(core, word), None if parent is None else TreeNode(parent, word[:-1]))
        count += 1
        if not report.ok:
            bad.append(report)
    if bad:
        for report in bad:
            print(f"FAIL {report.word or 'root'}: {'; '.join(report.failures)}",
                  file=sys.stderr)
        print(f"verified {count} nodes: {len(bad)} failed", file=sys.stderr)
        return 1
    print(f"verified {count} nodes: all invariants hold")
    return 0


def _cmd_pyth(args: argparse.Namespace) -> int:
    import json
    from .pythagoras import primitive_triple_oracle, triple_tree
    if args.oracle_cmax is not None:
        want = {t.leg_set for t in primitive_triple_oracle(args.oracle_cmax)}
        got = [triple.leg_set for _, triple in triple_tree(c_max=args.oracle_cmax)]
        ok = set(got) == want and len(got) == len(want)
        with _out_stream(args.output) as fp:
            fp.write(json.dumps({"cMax": args.oracle_cmax, "treeCount": len(got),
                                 "oracleCount": len(want), "match": ok}) + "\n")
        return 0 if ok else 1
    triples = triple_tree(max_depth=args.depth)  # raises on a bad depth before any output
    with _out_stream(args.output) as fp:
        for word, triple in triples:
            record = {"word": ".".join(str(i) for i in word),
                      "a": triple.a, "b": triple.b, "c": triple.c}
            fp.write(json.dumps(record) + "\n")
    return 0


def _cmd_apollonian(args: argparse.Namespace) -> int:
    import json
    from . import apollonian as apo
    if args.correspondence:
        report, steps = {}, ("h1", "h2", "h3", "U_L", "U_R")
        for step, found in zip(steps, apo._correspondence_searches(steps, 3, 12)):
            report[step] = {
                "pairsTested": found.pairs_tested,
                "matches": [{"word": ".".join(f"S{i}" for i in word),
                             "permutation": list(perm)}
                            for word, perm in found.matches],
            }
        print(json.dumps(report, indent=2))
        return 0
    if args.quad is None or args.word is None:
        raise ValueError("apollonian needs either --correspondence or both --quad and --word")
    parts = []
    for number, entry in enumerate(args.quad.split(","), 1):
        try:
            parts.append(int(entry))
        except ValueError:
            raise ValueError(f"--quad entry {number} is not an integer: {entry!r}") from None
    if len(parts) != 4:
        raise ValueError("--quad needs exactly four comma-separated integers")
    quad = apo.DescartesQuadruple(*parts)
    current = quad
    for token in args.word.split("."):
        token = token.strip().upper()
        if token[:1] not in ("A", "S") or not token[1:].isdecimal():
            raise ValueError(f"bad Apollonian token {token!r} (use S1..S4 or A1..A4)")
        move = apo.apply_A if token[0] == "A" else apo.apply_S
        current = move(int(token[1:]), current)
    print(json.dumps({"input": list(quad.as_tuple()), "word": args.word,
                      "result": list(current.as_tuple())}))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    import json
    from . import scaling as scaling_mod
    from . import tree as tree_mod
    word = tree_mod.parse_word(args.word)
    (a, _), (_, d) = scaling_mod.word_block(word)
    surd = scaling_mod.trace_exponent(a + d, word)
    cf = scaling_mod.cf_expansion(surd, args.cf_terms)
    print(json.dumps({
        "word": tree_mod.word_string(word),
        "trace": a + d,
        "surd": {"trace": surd.trace, "discriminant": surd.discriminant},
        "value": surd.value,
        "continuedFraction": {"preperiod": list(cf.preperiod),
                              "period": list(cf.period),
                              "terms": list(cf.terms)},
    }))
    return 0


def _cmd_wannier(args: argparse.Namespace) -> int:
    from .diophantine import gap_rows, reduced_fluxes
    fluxes = reduced_fluxes(args.qmax)  # raises on a bad q_max before the output opens
    with _out_stream(args.output) as fp:
        for p, q in fluxes:  # one string a flux, its p and q formatted once
            flux = f', "p": {p}, "q": {q}, "r": '
            fp.write("".join(f'{{"sigma": {sigma}, "tau": {tau}{flux}{r}}}\n'
                             for r, sigma, tau in gap_rows(p, q)))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from . import skeleton as skel
    from .tree import expand
    palette = tuple(args.palette.split(",")) if args.palette else skel.DEFAULT_PALETTE
    options = skel.RenderOptions(width=args.width, height=args.height,
                                 margin=args.margin, palette=palette,
                                 chain_preview=args.chain_preview)
    # Every node is built and checked before the output opens; the parts then
    # stream, so an I/O failure may leave a partial file, as `expand` does.
    parts = skel._svg_parts(expand(_limits(args)), options)
    with _out_stream(args.output) as fp:
        fp.writelines(parts)
    return 0


def _add_limit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--depth", type=int, required=True,
                     help="maximum word length (root is depth 0)")
    sub.add_argument("--chain-cap", type=int, default=0, dest="chain_cap",
                     help="chain members materialized per tail (default 0)")
    sub.add_argument("--max-qc", type=int, default=None, dest="max_qc",
                     help="optional cap on center denominators")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butterfly-tree",
        description="Exact octonary tree of butterflies with tails: "
                    "expansion, labeling, verification, correspondences, "
                    "scaling exponents, and skeleton rendering.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="stream the tree as JSONL or CSV")
    _add_limit_flags(p)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("node", help="show the node at a word")
    p.add_argument("--word", required=True,
                   help="dot-separated letters CL,CR,UL,UR,DL,DR,TL,TR "
                        "(TL/TR are the chain letters); empty for the root")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_node)

    p = sub.add_parser("chain", help="walk a node's tail; the output grows with the "
                                     "square of --steps, as each row's word is a letter longer")
    p.add_argument("--word", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("verify", help="run every invariant over an expansion")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pyth", help="Pythagorean triple tree / oracle check")
    p.add_argument("--depth", type=int, default=3, help="ignored with --oracle-cmax")
    p.add_argument("--oracle-cmax", type=int, default=None, dest="oracle_cmax",
                   help="in place of the listing, compare the tree with brute force up to this c")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_pyth)

    p = sub.add_parser("apollonian", help="apply S-words or search correspondences")
    p.add_argument("--quad", default=None,
                   help="four curvatures; write --quad=-1,2,2,3 when the "
                        "first one is negative")
    p.add_argument("--word", default=None, help="dot-separated S1..S4 or A1..A4")
    p.add_argument("--correspondence", action="store_true",
                   help="search S-word realizations of h1,h2,h3,U_L,U_R")
    p.set_defaults(func=_cmd_apollonian)

    p = sub.add_parser("scaling", help="exact scaling exponent of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--cf-terms", type=int, default=12, dest="cf_terms")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("wannier", help="gap lines for all fluxes up to qmax")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_wannier)

    p = sub.add_parser("render", help="deterministic SVG skeleton")
    _add_limit_flags(p)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=800)
    p.add_argument("--margin", type=int, default=40)
    p.add_argument("--palette", default=None,
                   help="eight comma-separated colors, generator order "
                        "CL,CR,UL,UR,DL,DR,TL,TR")
    p.add_argument("--chain-preview", type=int, default=4, dest="chain_preview")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ButterflyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4


def entry() -> None:
    code = main()
    try:  # a buffered stdout would otherwise fail at exit, with code 120
        sys.stdout.flush()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 3
        # So that the flush at exit cannot fail again (see `signal`'s SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
