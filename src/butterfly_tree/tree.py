"""The octonary tree of butterflies with tails.

Nodes are immutable: each holds its integer core and the generator word
that produced it from the root [0/1, 1/2, 1/1]; the rest are views.  A
node has six babies (C_L, C_R, U_L, U_R, D_L, D_R) and, whenever its two
edge denominators differ, one chain successor along the tail side, eight
generators but at most seven children.  Words therefore address nodes
uniquely; the converse (which labels are reached) is not claimed here.

Expansion is breadth-first and fully deterministic; limits cap the depth,
optionally the center denominator, and the number of consecutive chain
letters at the end of a word (a chain cap of 0 disables chain successors).

Every step is `generators._step` on the integer core: `step_core` adds
the friendly determinant to each, and a word's replay (`_replay`) checks
it once, on the core it reaches.
`walk` is the one breadth-first traversal: it yields each emitted node as
its core, word, word string, trailing chain run and parent's core.  It
decides the chain cap and the q_c ceiling from the parent (q_c grows along
every edge, so a pruned child hides nothing below the ceiling) and steps
only the children it emits.  It builds each level from the one above, so
it holds at most one level, about a seventh of the nodes, and never the
last; the parent's core lets CLI `verify` hold no node of its own.  `expand` wraps each core and word in a node, whose Fraction
state and label are built only on access; `expand_rows` builds only the
export row, which the JSONL and CSV writers format with one f-string, so
the CLI streams records with no object per record; `chain_rows` does the
same for the members of a chain.

`verify_node` is one induction on the integers: the root's core is the
root state's, and every other node is checked against its parent's core
alone, whose step is redone by two routes other than `step_core` (the
explicit recursion and the 3x3 label matrix).  So a given parent must
itself have passed; without one, the replay of the word's prefix stands in.

Importing this module loads only the integer core of `generators`; the rest
loads where it is used: `states` in `TreeNode.state` and `.label`,
`diophantine` in `verify_node`, `json` and `csv` in the readers.
"""

from __future__ import annotations

import functools
import importlib
from collections import namedtuple
from types import ModuleType
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    InvariantViolation,
    MalformedRecord,
    NoTail,
    TailDirectionMismatch,
)
from .generators import (
    BABY_KINDS,
    Core,
    GeneratorKind,
    ROOT_CORE,
    _C_CR,
    _D_L,
    _U_L,
    _check_denominators,
    _problems,
    _ratio,
    _step,
    _text,
    label_route,
    state_route,
    step_core,
    tail_generator,
    tail_side,
)

if TYPE_CHECKING:
    from .states import ButterflyLabel, ButterflyState

Word = tuple[GeneratorKind, ...]

_JSON_SAFE = 2 ** 53 - 1

RECORD_FIELDS = ("word", "qR", "qL", "dSigma", "pL", "pR", "pc", "qc",
                 "sigmaPlus", "sigmaMinus", "cellClass", "tailDirection", "depth")


def parse_word(text: str) -> Word:
    """Parse a dot-separated generator word such as 'UL.CR.TR'."""
    return _kinds([p for p in text.replace(",", ".").replace(" ", ".").split(".") if p])


def _kinds(steps: Iterable[Union[GeneratorKind, str]]) -> Word:
    """Each step as its generator, a token by `GeneratorKind.from_token`:
    ValueError names the first unknown token."""
    from_token = GeneratorKind.from_token  # an enum class attribute costs 0.3 us a read
    return tuple([step if step.__class__ is GeneratorKind else from_token(step)
                  for step in steps])


def word_string(word: Sequence[GeneratorKind]) -> str:
    return ".".join([kind.token for kind in word])


class TreeNode(NamedTuple):
    """One butterfly: its integer core and its word; everything else is a view.

    Construction does not validate; `.state` and `.label` raise
    InvariantViolation on an inconsistent core.
    """

    core: Core
    word: Word

    @property
    def state(self) -> ButterflyState:
        return _module("states").ButterflyState.from_core(self.core)

    @property
    def label(self) -> ButterflyLabel:
        _check_denominators(self.core)
        q_r, q_l, s_p, s_m = self.core[:4]
        return _module("states").ButterflyLabel(q_r, q_l, s_p - s_m)

    @property
    def depth(self) -> int:
        return len(self.word)

    @property
    def cell_class(self) -> str:
        return self.word[-1].cell_class if self.word else "root"

    @property
    def tail_direction(self) -> str:
        return tail_side(self.core[0], self.core[1])

    @property
    def word_str(self) -> str:
        return word_string(self.word)


@functools.cache
def _module(name: str) -> ModuleType:
    """The package module `name`, imported by the first call: a `from` import in a
    function would cost 2-3 us a call, a cached call about 0.2 us."""
    return importlib.import_module(f"{__package__}.{name}")


def root() -> TreeNode:
    return TreeNode(ROOT_CORE, ())


def _qc_row(kind: GeneratorKind) -> tuple[GeneratorKind, int, int]:
    """A generator with the row sums (u, v) of its 2x2 step block: the child
    it makes of (q_R, q_L) has q_c = u q_R + v q_L."""
    a, b, c, d = kind.step[:4]
    return kind, a + c, b + d


_BABY_ROWS = tuple(map(_qc_row, BABY_KINDS))
_TAIL_ROWS = (_BABY_ROWS + (_qc_row(GeneratorKind.C_CL),),
              _BABY_ROWS + (_qc_row(GeneratorKind.C_CR),))


def _candidates(q_r: int, q_l: int,
                tail_ok: bool = True) -> tuple[tuple[GeneratorKind, int, int], ...]:
    """The `_qc_row` of each generator that may make a child of (q_R, q_L):
    the six babies, then the tail letter when there is a tail and `tail_ok`."""
    tail = tail_generator(q_r, q_l) if tail_ok else None
    return _BABY_ROWS if tail is None else _TAIL_ROWS[tail is _C_CR]


def child(node: TreeNode, kind: GeneratorKind) -> TreeNode:
    """Apply one generator by the checked integer step."""
    return TreeNode(step_core(kind, node.core), node.word + (kind,))


def children(node: TreeNode) -> list[TreeNode]:
    """The six babies plus the chain successor when a tail exists."""
    return [child(node, kind) for kind, _, _ in _candidates(node.core[0], node.core[1])]


def chain_cores(core: Core, steps: int, word: Word) -> Iterator[Core]:
    """Checked cores of the first `steps` chain members below `core`.

    `word` addresses `core` and only names it in errors: ValueError for
    negative `steps`, NoTail when there is no tail.  The tail never flips
    sides: C_cR sends (q_R, q_L) to (2 q_R - q_L, q_R), which keeps
    q_R - q_L, and C_cL likewise keeps q_L - q_R.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    kind = tail_generator(core[0], core[1])
    if kind is None:
        raise NoTail(f"{word_string(word) or 'root'} has no tail")
    for _ in range(steps):
        core = step_core(kind, core)
        yield core


def chain(node: TreeNode, steps: int) -> list[TreeNode]:
    """The first `steps` members of the chain hanging off the node's tail."""
    kind = tail_generator(node.core[0], node.core[1])
    return [TreeNode(member, node.word + (kind,) * i)
            for i, member in enumerate(chain_cores(node.core, steps, node.word), 1)]


def chain_rows(node: TreeNode, steps: int) -> Iterator[tuple]:
    """The row of each member of `chain(node, steps)`, built straight from the cores."""
    core, text, depth = node.core, node.word_str, len(node.word)
    kind = tail_generator(core[0], core[1])
    for member in chain_cores(core, steps, node.word):
        text, depth = f"{text}.{kind.token}", depth + 1
        yield record_row(member, text, "chain", depth)


def _replay(word: Word) -> Core:
    """The checked core reached by stepping the word from the root.

    Folds `generators._step`.  A chain letter applied against the tail
    raises TailDirectionMismatch naming the prefix that failed; past 20
    letters, only the letter's number and both ends of the prefix.  No
    step changes the friendly determinant (`generators._check_steps`), so
    the full check runs once, on the core returned.
    """
    core = ROOT_CORE
    try:
        for i, kind in enumerate(word):
            core = _step(kind, core)
    except TailDirectionMismatch as exc:
        where = f"prefix {word_string(word[:i + 1])}"
        if i >= 20:  # bound the error line: the letter and both ends
            where = (f"letter {i + 1} ({kind.token}) of prefix "
                     f"{word_string(word[:4])} ... {word_string(word[i - 3:i + 1])}")
        raise TailDirectionMismatch(f"word fails at {where}: {exc}") from exc
    problems = _problems(core)
    if problems:
        raise InvariantViolation(f"{len(word)}-letter word replays to a bad state: "
                                 + "; ".join(problems))
    return core


def node_at(word: Union[str, Sequence[Union[GeneratorKind, str]]]) -> TreeNode:
    """Replay a word from the root: a dot-separated string or a sequence of
    generators and tokens.

    Every token is converted before the replay, so an unknown one raises
    ValueError whatever the letters before it; a chain letter applied
    against the tail raises TailDirectionMismatch naming the prefix that
    failed.
    """
    kinds = parse_word(word) if isinstance(word, str) else _kinds(word)
    return TreeNode(_replay(kinds), kinds)


class ExpansionLimits(namedtuple("ExpansionLimits", "max_depth chain_cap max_qc")):
    """Bounds for breadth-first expansion.

    max_depth: word length ceiling (root is depth 0).
    chain_cap: longest allowed run of consecutive trailing chain letters.
    max_qc: optional ceiling on the center denominator.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, max_depth: int, chain_cap: int = 0,
                max_qc: Optional[int] = None) -> ExpansionLimits:
        if max_depth < 0 or chain_cap < 0:
            raise ValueError("limits must be non-negative")
        if max_qc is not None and max_qc < 2:
            raise ValueError("max_qc must be at least 2")
        return super().__new__(cls, max_depth, chain_cap, max_qc)


def walk(limits: ExpansionLimits) -> Iterator[tuple[Core, Word, str, int, Optional[Core]]]:
    """Breadth-first walk of the integer cores, deterministic order.

    Yields (core, word, word string, trailing chain run, parent's core) for
    each emitted node, the root first with parent None.  Each prune is
    decided from the parent before any step: the tail letter is a candidate
    only while the run is under the chain cap, and a candidate's q_c is read
    from the parent's denominators (`_qc_row`).  Only the children emitted
    are stepped, each checked in full by `step_core`.  Each level is built
    from the one above, whose parents are dropped as they are stepped; a
    child is yielded as soon as it is made and kept only while it is above
    `max_depth`, so at most one level is held and the last one never.
    """
    max_depth, chain_cap, max_qc = limits
    item = (ROOT_CORE, (), "", 0, None)
    yield item
    level = [item] if max_depth else []
    while level:
        above, level = level, []
        above.reverse()
        while above:
            core, word, text, run, _ = above.pop()
            keep = len(word) + 1 < max_depth
            q_r, q_l = core[0], core[1]
            prefix = f"{text}." if word else ""
            for kind, u, v in _candidates(q_r, q_l, run < chain_cap):
                if max_qc is None or u * q_r + v * q_l <= max_qc:
                    item = (step_core(kind, core), word + (kind,), prefix + kind.token,
                            run + 1 if kind.is_chain else 0, core)
                    yield item
                    if keep:
                        level.append(item)


def expand(limits: ExpansionLimits) -> Iterator[TreeNode]:
    """The nodes of `walk(limits)`, in the same order."""
    return (TreeNode(core, word) for core, word, _, _, _ in walk(limits))


class NodeVerification(NamedTuple):
    """Outcome of the per-node invariant battery."""

    word: str
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


# The q_c and Delta-sigma step tables, keyed by token so that a lookup
# hashes no enum member, as coefficients (a, b, c, d) on the parent's
# denominators: q_c' = a q_R + b q_L and Delta-sigma' = Delta-sigma + c q_R + d q_L.
_EXPECTED_STEP = {
    "CL": (1, 3, 0, 0),
    "CR": (3, 1, 0, 0),
    "UL": (2, 3, -1, 0),
    "UR": (3, 2, 0, 1),
    "DL": (2, 3, 1, 0),
    "DR": (3, 2, 0, -1),
    "TL": (-1, 3, 0, 0),
    "TR": (3, -1, 0, 0),
}


def verify_node(node: TreeNode, parent: Optional[TreeNode] = None) -> NodeVerification:
    """Run every node invariant and, below the root, the relations to the parent.

    One induction on the integers: the root's core must be the root
    state's, and every other node is checked against its parent's core
    alone.  A given `parent` is taken as verified, so it must itself have
    passed: a tampered parent is caught where it is verified, not here.
    Without one, the replay of word[:-1] from the root stands in for it,
    and a prefix that does not replay is reported in place of the parent
    relations.  No Fraction is built, not even to word a failure.
    """
    diophantine = _module("diophantine")
    core, word = node
    q_r, q_l, s_p, s_m, p_r, p_l = core
    label = (q_r, q_l, s_p - s_m)
    failures = _problems(core)

    try:
        recovered = diophantine.recover_edges(q_r, q_l)
        if recovered != (p_l, p_r):
            failures.append(f"numerators {(p_l, p_r)} differ from recovered {recovered}")
    except Exception as exc:
        failures.append(f"edge recovery failed: {exc}")

    det = p_r * q_l - p_l * q_r
    if det != 1:
        failures.append(f"width {_ratio(det, q_r * q_l)} != 1/(q_L q_R)")

    q_c = q_r + q_l
    try:
        r_c = diophantine.central_gap(s_p, s_m, p_r + p_l, q_c)[2]
        if not 0 < r_c < q_c:
            failures.append(f"central gap index {r_c} out of range")
    except Exception as exc:
        failures.append(f"central gap congruence failed: {exc}")

    # Eight checks so far: the four of `_problems`, the numerators, the width,
    # the central gap, and the root's core, else the parent's replay or the
    # cross-route; below the root, four more relate the node to its parent.
    if not word:
        if core != ROOT_CORE:
            failures.append("word replay disagrees with stored node")
        return NodeVerification(node.word_str, 8, tuple(failures))
    prefix, last = word[:-1], word[-1]
    if parent is not None:
        if parent.word != prefix:
            raise ValueError("given parent does not match word prefix")
        p_core = parent.core
    else:
        try:
            p_core = _replay(prefix)
        except Exception as exc:
            failures.append(f"parent replay failed: {exc}")
            return NodeVerification(node.word_str, 8, tuple(failures))
    pq_r, pq_l, ps_p, ps_m, pp_r, pp_l = p_core

    try:
        via_state = state_route(last, p_core)
        via_label = label_route(last, (pq_r, pq_l, ps_p - ps_m))
    except TailDirectionMismatch as exc:
        failures.append(f"cross-route: stepping the parent failed: {exc}")
    else:
        if via_state != core or via_label != label:
            failures.append(f"cross-route: {last.value} on the parent gives state "
                            f"{_text(via_state)} and label {_text(via_label)}, the node "
                            f"has {_text(core)} and {_text(label)}")

    a, b, c, d = _EXPECTED_STEP[last.token]
    expected_qc = a * pq_r + b * pq_l
    if q_c != expected_qc:
        failures.append(f"q_c {q_c} != expected {expected_qc}")

    expected_ds = ps_p - ps_m + c * pq_r + d * pq_l
    if s_p - s_m != expected_ds:
        failures.append(f"Delta-sigma {s_p - s_m} != expected {expected_ds}")

    if last.is_chain:
        # The accumulation point (pp_r - pp_l)/(pq_r - pq_l).
        acc_p, acc_q = pp_r - pp_l, pq_r - pq_l
        if acc_q < 0:
            acc_p, acc_q = -acc_p, -acc_q
        if acc_q == 0:
            failures.append(f"chain member of a parent with no accumulation "
                            f"point: equal denominators in "
                            f"{_ratio(pp_l, pq_l)}, {_ratio(pp_r, pq_r)}")
        elif pq_r > pq_l:
            if (p_l, q_l) != (pp_r, pq_r) or not p_r * acc_q < acc_p * q_r:
                failures.append("chain member not between parent edge "
                                "and accumulation point")
        elif (p_r, q_r) != (pp_l, pq_l) or not p_l * acc_q > acc_p * q_l:
            failures.append("chain member not between accumulation "
                            "point and parent edge")
    elif not (pp_l * q_l <= p_l * pq_l and p_r * pq_r <= pp_r * q_r):
        failures.append("baby interval escapes the parent interval")

    p_qc = pq_r + pq_l
    if last.cell_class in ("C-cell", "chain"):
        if (q_c - p_qc) % 2:
            failures.append("parity-preserving step changed q_c parity")
    else:
        side = pq_l if last in (_U_L, _D_L) else pq_r
        if q_c != 2 * p_qc + side:
            failures.append("E-cell step is not q_c' = 2 q_c + q_edge")

    return NodeVerification(node.word_str, 12, tuple(failures))


def record_row(core: Core, text: str, cell_class: str, depth: int) -> tuple:
    """The RECORD_FIELDS values, in order, of the node with this core and word.

    The nine integers stay Python ints of any size.  The center of
    friendly edges is their mediant, so p_c = p_L + p_R; the tail
    direction is read from the denominators (`tail_side`).
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    return (text, q_r, q_l, s_p - s_m, p_l, p_r, p_l + p_r, q_r + q_l, s_p, s_m,
            cell_class, tail_side(q_r, q_l), depth)


def node_row(node: TreeNode) -> tuple:
    """`record_row` of a node's core and word."""
    return record_row(node.core, node.word_str, node.cell_class, node.depth)


def expand_rows(limits: ExpansionLimits) -> Iterator[tuple]:
    """The row of each node of `expand(limits)`, built straight from the cores."""
    for core, word, text, _, _ in walk(limits):
        yield record_row(core, text, word[-1].cell_class if word else "root", len(word))


def _decimal(n: int) -> str:
    """Decimal text of an integer of any size.

    str() refuses integers past the interpreter's digit limit (4 300 by
    default), which guards `int()` on input and is left as it is; such an
    integer is written in 600-digit chunks, under the lowest limit (640).
    """
    try:
        return str(n)
    except ValueError:
        chunks, rest = [], abs(n)
        while rest:
            rest, low = divmod(rest, 10 ** 600)
            chunks.append(f"{low:0600d}")
        return "-" * (n < 0) + "".join(reversed(chunks)).lstrip("0")


def _json_int(n: int) -> Union[int, str]:
    return n if -_JSON_SAFE <= n <= _JSON_SAFE else _decimal(n)


def node_record(node: TreeNode) -> dict:
    """Flat export record; oversized integers become decimal strings."""
    return {key: value if isinstance(value, str) else _json_int(value)
            for key, value in zip(RECORD_FIELDS, node_row(node))}


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
    text = repr(got)  # bounded: a field can hold thousands of digits
    if len(text) > 60:
        text = f"{text[:40]}... ({len(text)} characters)"
    raise MalformedRecord(f"field {key} is not an integer: {text}")


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
    for key, want in zip(RECORD_FIELDS, node_row(node)):
        got = _field(record, key)
        if isinstance(want, str):
            same = got == want
        else:
            same = _int_value(key, got) == want
            want = _json_int(want)
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
# newline, so the writers' lines equal json.dumps(record, separators=(",", ":"))
# and csv.DictWriter output with no escaping.


def _json_text(n: int) -> Union[int, str]:
    """An integer field as JSON text: quoted decimal beyond +/-(2^53 - 1)."""
    return n if -_JSON_SAFE <= n <= _JSON_SAFE else f'"{_decimal(n)}"'


def write_jsonl_rows(rows: Iterable[tuple], fp: IO[str]) -> int:
    """Write record rows as JSONL, one line per row; returns the count."""
    write, low, high = fp.write, -_JSON_SAFE, _JSON_SAFE
    count = 0
    for text, q_r, q_l, d_s, p_l, p_r, p_c, q_c, s_p, s_m, cell, tail, depth in rows:
        if not (low <= q_r <= high and low <= q_l <= high and low <= d_s <= high
                and low <= p_l <= high and low <= p_r <= high and low <= p_c <= high
                and low <= q_c <= high and low <= s_p <= high and low <= s_m <= high):
            q_r, q_l, d_s, p_l, p_r, p_c, q_c, s_p, s_m = map(
                _json_text, (q_r, q_l, d_s, p_l, p_r, p_c, q_c, s_p, s_m))
        write(f'{{"word":"{text}","qR":{q_r},"qL":{q_l},"dSigma":{d_s},"pL":{p_l},'
              f'"pR":{p_r},"pc":{p_c},"qc":{q_c},"sigmaPlus":{s_p},"sigmaMinus":{s_m},'
              f'"cellClass":"{cell}","tailDirection":"{tail}","depth":{depth}}}\n')
        count += 1
    return count


def write_jsonl(nodes: Iterable[TreeNode], fp: IO[str]) -> int:
    return write_jsonl_rows(map(node_row, nodes), fp)


def read_jsonl(fp: IO[str]) -> list[TreeNode]:
    """Nodes of a JSONL export; errors name the 1-based line."""
    import json
    out = []
    for number, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # a JSON integer past the digit limit too
            raise MalformedRecord(f"line {number}: not JSON: {exc}") from exc
        out.append(_located(f"line {number}", record))
    return out


def write_csv_rows(rows: Iterable[tuple], fp: IO[str]) -> int:
    """Write a header and record rows as CSV; returns the row count."""
    write = fp.write
    write(",".join(RECORD_FIELDS) + "\n")
    count = 0
    for text, q_r, q_l, d_s, p_l, p_r, p_c, q_c, s_p, s_m, cell, tail, depth in rows:
        try:
            line = (f"{text},{q_r},{q_l},{d_s},{p_l},{p_r},{p_c},{q_c},{s_p},{s_m},"
                    f"{cell},{tail},{depth}\n")
        except ValueError:  # an integer past the interpreter's digit limit
            ints = map(_decimal, (q_r, q_l, d_s, p_l, p_r, p_c, q_c, s_p, s_m))
            line = ",".join([text, *ints, cell, tail, str(depth)]) + "\n"
        write(line)
        count += 1
    return count


def write_csv(nodes: Iterable[TreeNode], fp: IO[str]) -> int:
    return write_csv_rows(map(node_row, nodes), fp)


def read_csv(fp: IO[str]) -> list[TreeNode]:
    """Nodes of a CSV export; errors name the 1-based data row."""
    import csv
    return [_located(f"row {number}", row)
            for number, row in enumerate(csv.DictReader(fp), 1)]
