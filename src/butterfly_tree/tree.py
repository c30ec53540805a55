"""The octonary tree of butterflies with tails.

Nodes are immutable: each carries its integer label, full state, and the
generator word that produced it from the root [0/1, 1/2, 1/1].  A node has
six babies (C_L, C_R, U_L, U_R, D_L, D_R) and, whenever its two edge
denominators differ, one chain successor along the tail side, eight
generators but at most seven children.  Words therefore address nodes
uniquely; the converse (which labels are reached) is not claimed here.

Expansion is breadth-first and fully deterministic; limits cap the depth,
optionally the center denominator, and the number of consecutive chain
letters at the end of a word (a chain cap of 0 disables chain successors).

Every step runs on the checked integer core (`generators.step_core`).
`walk` is the one breadth-first traversal: it yields each emitted node as
its core, word, word string and trailing chain run.  `expand` builds a
node (Fraction state and label) from each of them; `expand_rows` builds
only the export row (`record_row`), which the JSONL and CSV writers format
directly, so the CLI streams records with no object per record.

`verify_node` runs every check on the integers of the node's core and its
parent's, the word's replay from the root (shared with `node_at`) too.
The parent's step is redone by two routes other than `step_core`: the
explicit recursion and the 3x3 label matrix.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

from .diophantine import central_gap, recover_edges
from .errors import (
    ButterflyError,
    InvariantViolation,
    MalformedRecord,
    NoTail,
    TailDirectionMismatch,
)
from .generators import (
    BABY_KINDS,
    ButterflyLabel,
    ButterflyState,
    Core,
    GeneratorKind,
    ROOT_LABEL,
    ROOT_STATE,
    _problems,
    apply_label,
    apply_state,
    label_route,
    state_route,
    step_core,
    tail_generator,
    tail_side,
)

Word = tuple[GeneratorKind, ...]

_JSON_SAFE = 2 ** 53 - 1

RECORD_FIELDS = ("word", "qR", "qL", "dSigma", "pL", "pR", "pc", "qc",
                 "sigmaPlus", "sigmaMinus", "cellClass", "tailDirection", "depth")


def parse_word(text: str) -> Word:
    """Parse a dot-separated generator word such as 'UL.CR.TR'."""
    parts = [p for p in text.replace(",", ".").replace(" ", ".").split(".") if p]
    return tuple(GeneratorKind.from_token(p) for p in parts)


def word_string(word: Sequence[GeneratorKind]) -> str:
    return ".".join([kind.token for kind in word])


@dataclass(frozen=True)
class TreeNode:
    """One butterfly of the hierarchy, addressed by its generator word."""

    label: ButterflyLabel
    state: ButterflyState
    word: Word
    depth: int
    cell_class: str
    tail_direction: str

    @property
    def word_str(self) -> str:
        return word_string(self.word)

    @property
    def chain_run(self) -> int:
        """Number of consecutive chain letters ending the word."""
        run = 0
        for kind in reversed(self.word):
            if not kind.is_chain:
                break
            run += 1
        return run


def root() -> TreeNode:
    return TreeNode(ROOT_LABEL, ROOT_STATE, (), 0, "root", "none")


def _node(core: Core, word: Word) -> TreeNode:
    """The public view of the integer core that `word` reaches."""
    q_r, q_l, s_p, s_m = core[:4]
    return TreeNode(ButterflyLabel(q_r, q_l, s_p - s_m), ButterflyState.from_core(core),
                    word, len(word), word[-1].cell_class if word else "root",
                    tail_side(q_r, q_l))


def _kid_cores(core: Core) -> Iterator[tuple[GeneratorKind, Core]]:
    """The checked child cores: the six babies, then the tail step if any."""
    for kind in BABY_KINDS:
        yield kind, step_core(kind, core)
    tail = tail_generator(core[0], core[1])
    if tail is not None:
        yield tail, step_core(tail, core)


def child(node: TreeNode, kind: GeneratorKind) -> TreeNode:
    """Apply one generator by the checked integer step."""
    return _node(step_core(kind, node.state.core), node.word + (kind,))


def children(node: TreeNode) -> list[TreeNode]:
    """The six babies plus the chain successor when a tail exists."""
    return [_node(kid, node.word + (kind,))
            for kind, kid in _kid_cores(node.state.core)]


def chain_cores(core: Core, steps: int, word: Word) -> Iterator[Core]:
    """Checked cores of the first `steps` chain members below `core`.

    `word` addresses `core` and only names it in errors: NoTail when there
    is no tail, InvariantViolation if the tail ever flips sides.
    """
    kind = tail_generator(core[0], core[1])
    if kind is None:
        raise NoTail(f"{word_string(word) or 'root'} has no tail")
    side = tail_side(core[0], core[1])
    for _ in range(steps):
        core = step_core(kind, core)
        if tail_side(core[0], core[1]) != side:
            raise InvariantViolation(
                f"tail flipped from {side} along the chain of {word_string(word)}")
        yield core


def chain(node: TreeNode, steps: int) -> list[TreeNode]:
    """The first `steps` members of the chain hanging off the node's tail."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    kind = node.state.tail_generator
    out, word = [], node.word
    for member in chain_cores(node.state.core, steps, word):
        word += (kind,)
        out.append(_node(member, word))
    return out


def _replay(word: Word, start: int = 0, core: Core = ROOT_STATE.core) -> Core:
    """The core reached by stepping word[start:] from `core`, the root's by default.

    A chain letter applied against the tail raises TailDirectionMismatch
    naming the prefix that failed.
    """
    for i in range(start, len(word)):
        try:
            core = step_core(word[i], core)
        except TailDirectionMismatch as exc:
            raise TailDirectionMismatch(
                f"word fails at prefix {word_string(word[:i + 1])}: {exc}") from exc
    return core


def node_at(word: Union[str, Sequence[Union[GeneratorKind, str]]]) -> TreeNode:
    """Replay a word from the root.

    A chain letter applied against the tail raises TailDirectionMismatch
    naming the prefix that failed.
    """
    if isinstance(word, str):
        word = parse_word(word)
    kinds: list[GeneratorKind] = []
    try:
        for step in word:
            kinds.append(step if isinstance(step, GeneratorKind)
                         else GeneratorKind.from_token(step))
    except ValueError:
        _replay(kinds)  # a bad chain letter before the bad token fails first
        raise
    return _node(_replay(kinds), tuple(kinds))


@dataclass(frozen=True)
class ExpansionLimits:
    """Bounds for breadth-first expansion.

    max_depth: word length ceiling (root is depth 0).
    chain_cap: longest allowed run of consecutive trailing chain letters.
    max_qc: optional ceiling on the center denominator.
    """

    max_depth: int
    chain_cap: int = 0
    max_qc: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_depth < 0 or self.chain_cap < 0:
            raise ValueError("limits must be non-negative")
        if self.max_qc is not None and self.max_qc < 2:
            raise ValueError("max_qc must be at least 2")


def walk(limits: ExpansionLimits) -> Iterator[tuple[Core, Word, str, int]]:
    """Breadth-first walk of the integer cores, deterministic order.

    Yields (core, word, word string, trailing chain run) for each emitted
    node, the root first.  Every candidate child is stepped and checked;
    only those that pass the chain cap and the q_c ceiling are emitted.
    """
    queue = deque([(ROOT_STATE.core, (), "", 0)])
    while queue:
        item = queue.popleft()
        yield item
        core, word, text, run = item
        if len(word) >= limits.max_depth:
            continue
        for kind, kid in _kid_cores(core):
            chained = kind.is_chain
            if chained and run >= limits.chain_cap:
                continue
            if limits.max_qc is not None and kid[0] + kid[1] > limits.max_qc:
                continue
            queue.append((kid, word + (kind,),
                          f"{text}.{kind.token}" if word else kind.token,
                          run + 1 if chained else 0))


def expand(limits: ExpansionLimits) -> Iterator[TreeNode]:
    """The nodes of `walk(limits)`, in the same order."""
    for core, word, _, _ in walk(limits):
        yield _node(core, word)


@dataclass(frozen=True)
class NodeVerification:
    """Outcome of the per-node invariant battery."""

    word: str
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


# The q_c and Delta-sigma step tables, as coefficients (a, b, c, d) on the
# parent's denominators: q_c' = a q_R + b q_L and Delta-sigma' =
# Delta-sigma + c q_R + d q_L.
_EXPECTED_STEP = {
    GeneratorKind.C_L: (1, 3, 0, 0),
    GeneratorKind.C_R: (3, 1, 0, 0),
    GeneratorKind.U_L: (2, 3, -1, 0),
    GeneratorKind.U_R: (3, 2, 0, 1),
    GeneratorKind.D_L: (2, 3, 1, 0),
    GeneratorKind.D_R: (3, 2, 0, -1),
    GeneratorKind.C_CL: (-1, 3, 0, 0),
    GeneratorKind.C_CR: (3, -1, 0, 0),
}


def _cross_route_failure(kind: GeneratorKind, parent: TreeNode,
                         node: TreeNode) -> Optional[str]:
    """The cross-route failure on the object views, None if they agree.

    Run only when the integer routes differ: the Fraction view reduces the
    edges stepped from an unfriendly parent, so it can still agree.
    """
    try:
        via_state = apply_state(kind, parent.state)
        via_label = apply_label(kind, parent.label)
    except ButterflyError as exc:
        return f"cross-route: stepping the parent failed: {exc}"
    if via_state != node.state or via_label != node.label:
        return (f"cross-route: {kind.value} on the parent gives state "
                f"{via_state.core} and label {via_label.as_tuple()}, the node "
                f"has {node.state.core} and {node.label.as_tuple()}")
    return None


def verify_node(node: TreeNode, parent: Optional[TreeNode] = None) -> NodeVerification:
    """Run every node invariant; optionally also the parent relations.

    Each check compares plain integers read once from the node's core and
    the parent's; a Fraction is built only to word a failure.  The word is
    replayed from the root even when `parent` is given.  When it is not,
    the replay's core of word[:-1] stands in for it, and a prefix that
    does not replay is reported in place of the parent relations.
    """
    word, label, state = node.word, node.label, node.state
    core = state.core
    q_r, q_l, s_p, s_m, p_r, p_l = core
    failures = _problems(core)
    clean = not failures
    checks = 4

    checks += 1
    state_tuple = (q_r, q_l, s_p - s_m)
    label_tuple = label.as_tuple()
    if label_tuple != state_tuple:
        failures.append(f"label {label} does not match state {state_tuple}")

    checks += 1
    try:
        recovered = recover_edges(q_r, q_l)
        if recovered != (p_l, p_r):
            failures.append(f"numerators {(p_l, p_r)} differ from recovered {recovered}")
    except Exception as exc:
        failures.append(f"edge recovery failed: {exc}")

    checks += 1
    if p_r * q_l - p_l * q_r != 1:
        failures.append(f"width {state.width} != 1/(q_L q_R)")

    checks += 1
    expected_class = "root" if not word else word[-1].cell_class
    if node.cell_class != expected_class:
        failures.append(f"cell class {node.cell_class} != {expected_class}")

    checks += 1
    tail = tail_side(q_r, q_l)
    if node.tail_direction != tail:
        failures.append(f"tail direction {node.tail_direction} != {tail}")

    checks += 1
    q_c, p_c = q_r + q_l, p_r + p_l
    g = gcd(p_c, q_c)  # the centre in lowest terms, as its Fraction has it
    try:
        r_c = central_gap(s_p, s_m, p_c // g, q_c // g)
        if not 0 < r_c < q_c:
            failures.append(f"central gap index {r_c} out of range")
    except Exception as exc:
        failures.append(f"central gap congruence failed: {exc}")

    checks += 1
    prefix, head = word[:-1], None
    try:
        head = _replay(prefix)
        replayed = _replay(word, len(prefix), head)
    except Exception as exc:
        failures.append(f"word replay failed: {exc}")
        replay_error = exc
    else:
        if replayed != core or label_tuple != state_tuple:
            failures.append("word replay disagrees with stored node")

    if word:
        if parent is not None:
            if parent.word != prefix:
                raise ValueError("given parent does not match word prefix")
            p_core, p_label = parent.state.core, parent.label.as_tuple()
            p_tail = parent.tail_direction
        elif head is None:
            checks += 1
            failures.append(f"parent replay failed: {replay_error}")
            return NodeVerification(node.word_str, checks, tuple(failures))
        else:
            p_core, p_label = head, (head[0], head[1], head[2] - head[3])
            p_tail = tail_side(head[0], head[1])
        last = word[-1]
        pq_r, pq_l, ps_p, ps_m, pp_r, pp_l = p_core

        checks += 1
        try:
            agree = (clean and state_route(last, p_core) == core
                     and label_route(last, p_label) == label_tuple)
        except TailDirectionMismatch:
            agree = False
        if not agree:
            failure = _cross_route_failure(
                last, _node(head, prefix) if parent is None else parent, node)
            if failure:
                failures.append(failure)

        a, b, c, d = _EXPECTED_STEP[last]
        checks += 1
        expected_qc = a * pq_r + b * pq_l
        if q_c != expected_qc:
            failures.append(f"q_c {q_c} != expected {expected_qc}")

        checks += 1
        expected_ds = ps_p - ps_m + c * pq_r + d * pq_l
        if s_p - s_m != expected_ds:
            failures.append(f"Delta-sigma {s_p - s_m} != expected {expected_ds}")

        checks += 1
        if last.is_chain:
            # The accumulation point (pp_r - pp_l)/(pq_r - pq_l).
            acc_p, acc_q = pp_r - pp_l, pq_r - pq_l
            if acc_q < 0:
                acc_p, acc_q = -acc_p, -acc_q
            if acc_q == 0:
                failures.append(f"chain member of a parent with no accumulation "
                                f"point: equal denominators in "
                                f"{Fraction(pp_l, pq_l)}, {Fraction(pp_r, pq_r)}")
            elif p_tail == "right":
                if (p_l, q_l) != (pp_r, pq_r) or not p_r * acc_q < acc_p * q_r:
                    failures.append("chain member not between parent edge "
                                    "and accumulation point")
            elif (p_r, q_r) != (pp_l, pq_l) or not p_l * acc_q > acc_p * q_l:
                failures.append("chain member not between accumulation "
                                "point and parent edge")
        elif not (pp_l * q_l <= p_l * pq_l and p_r * pq_r <= pp_r * q_r):
            failures.append("baby interval escapes the parent interval")

        checks += 1
        p_qc = pq_r + pq_l
        if last.cell_class in ("C-cell", "chain"):
            if (q_c - p_qc) % 2:
                failures.append("parity-preserving step changed q_c parity")
        else:
            side = pq_l if last in (GeneratorKind.U_L, GeneratorKind.D_L) else pq_r
            if q_c != 2 * p_qc + side:
                failures.append("E-cell step is not q_c' = 2 q_c + q_edge")

    return NodeVerification(node.word_str, checks, tuple(failures))


def record_row(core: Core, text: str, cell_class: str, tail_direction: str,
               depth: int) -> tuple:
    """The RECORD_FIELDS values, in order, of the node with this core and word.

    The nine integers stay Python ints of any size.  The center of
    friendly edges is their mediant, so p_c = p_L + p_R.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    return (text, q_r, q_l, s_p - s_m, p_l, p_r, p_l + p_r, q_r + q_l, s_p, s_m,
            cell_class, tail_direction, depth)


def node_row(node: TreeNode) -> tuple:
    """`record_row` of a node, with its stored class, tail direction and depth."""
    return record_row(node.state.core, node.word_str, node.cell_class,
                      node.tail_direction, node.depth)


def expand_rows(limits: ExpansionLimits) -> Iterator[tuple]:
    """The row of each node of `expand(limits)`, built straight from the cores."""
    for core, word, text, _ in walk(limits):
        yield record_row(core, text, word[-1].cell_class if word else "root",
                         tail_side(core[0], core[1]), len(word))


def _json_int(n: int) -> Union[int, str]:
    return n if -_JSON_SAFE <= n <= _JSON_SAFE else str(n)


def node_record(node: TreeNode) -> dict:
    """Flat export record; oversized integers become decimal strings."""
    text, q_r, q_l, d_s, p_l, p_r, p_c, q_c, s_p, s_m, cell, tail, depth = node_row(node)
    return {"word": text, "qR": _json_int(q_r), "qL": _json_int(q_l),
            "dSigma": _json_int(d_s), "pL": _json_int(p_l), "pR": _json_int(p_r),
            "pc": _json_int(p_c), "qc": _json_int(q_c), "sigmaPlus": _json_int(s_p),
            "sigmaMinus": _json_int(s_m), "cellClass": cell, "tailDirection": tail,
            "depth": depth}


_TEXT_FIELDS = ("word", "cellClass", "tailDirection")


def _field(record: dict, key: str) -> object:
    try:
        return record[key]
    except KeyError:
        raise MalformedRecord(f"field {key} is missing") from None


def _int_value(key: str, got: object) -> int:
    """An integer field: a JSON integer or a decimal string (CSV, big ints)."""
    if isinstance(got, str) or (isinstance(got, int) and not isinstance(got, bool)):
        try:
            return int(got)
        except ValueError:
            pass
    raise MalformedRecord(f"field {key} is not an integer: {got!r}")


def node_from_record(record: dict) -> TreeNode:
    """Rebuild a node from a record by replaying its word, then cross-check.

    Every numeric field of the record must match the replayed node, so a
    parsed export is verified against the generators, not trusted.  A
    missing or non-integer field raises MalformedRecord.
    """
    if not isinstance(record, dict):
        raise MalformedRecord(f"record is not an object: {record!r}")
    word = _field(record, "word")
    if not isinstance(word, str):
        raise MalformedRecord(f"field word is not a string: {word!r}")
    node = node_at(word)
    expected = node_record(node)
    for key in RECORD_FIELDS:
        got, want = _field(record, key), expected[key]
        if key in _TEXT_FIELDS:
            same = got == want
        else:
            same = _int_value(key, got) == int(want)
        if not same:
            raise InvariantViolation(f"record field {key}: {got!r} != {want!r}")
    return node


def _located(where: str, record: dict) -> TreeNode:
    try:
        return node_from_record(record)
    except MalformedRecord as exc:
        raise MalformedRecord(f"{where}: {exc}") from None


# The text fields come from fixed ASCII sets: generator tokens joined by
# ".", the cell classes and left/right/none.  No field holds ",", '"' or a
# newline, so these lines equal json.dumps(record, separators=(",", ":"))
# and csv.DictWriter output with no escaping.
_JSONL_LINE = ('{{"word":"{}","qR":{},"qL":{},"dSigma":{},"pL":{},"pR":{},"pc":{},'
               '"qc":{},"sigmaPlus":{},"sigmaMinus":{},"cellClass":"{}",'
               '"tailDirection":"{}","depth":{}}}\n').format
_CSV_LINE = (",".join(["{}"] * len(RECORD_FIELDS)) + "\n").format


def _json_text(n: int) -> Union[int, str]:
    """An integer field as JSON text: quoted decimal beyond +/-(2^53 - 1)."""
    return n if -_JSON_SAFE <= n <= _JSON_SAFE else f'"{n}"'


def write_jsonl_rows(rows: Iterable[tuple], fp: IO[str]) -> int:
    """Write record rows as JSONL, one line per row; returns the count."""
    count = 0
    for row in rows:
        ints = row[1:10]
        if min(ints) < -_JSON_SAFE or max(ints) > _JSON_SAFE:
            row = row[:1] + tuple(map(_json_text, ints)) + row[10:]
        fp.write(_JSONL_LINE(*row))
        count += 1
    return count


def write_jsonl(nodes: Iterable[TreeNode], fp: IO[str]) -> int:
    return write_jsonl_rows(map(node_row, nodes), fp)


def read_jsonl(fp: IO[str]) -> list[TreeNode]:
    """Nodes of a JSONL export; errors name the 1-based line."""
    out = []
    for number, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"line {number}: not JSON: {exc}") from exc
        out.append(_located(f"line {number}", record))
    return out


def write_csv_rows(rows: Iterable[tuple], fp: IO[str]) -> int:
    """Write a header and record rows as CSV; returns the row count."""
    fp.write(",".join(RECORD_FIELDS) + "\n")
    count = 0
    for row in rows:
        fp.write(_CSV_LINE(*row))
        count += 1
    return count


def write_csv(nodes: Iterable[TreeNode], fp: IO[str]) -> int:
    return write_csv_rows(map(node_row, nodes), fp)


def read_csv(fp: IO[str]) -> list[TreeNode]:
    """Nodes of a CSV export; errors name the 1-based data row."""
    return [_located(f"row {number}", row)
            for number, row in enumerate(csv.DictReader(fp), 1)]
