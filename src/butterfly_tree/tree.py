"""The octonary tree of butterflies with tails.

Nodes are immutable: each holds its integer core and the generator word
that produced it from the root [0/1, 1/2, 1/1]; the rest are views.  A
node has six babies (C_L, C_R, U_L, U_R, D_L, D_R) and, whenever its two
edge denominators differ, one chain successor along the tail side, eight
generators but at most seven children.  Words therefore address nodes
uniquely.  Which labels are reached is measured, not proved: up to q_c = 60
the 6 721 nodes have distinct labels but reach only 947 of the 1 101
coprime (q_R, q_L), never the halves [0, 1/2] and [1/2, 1].

There are three ways down the tree, none stepping more than it must.
`walk`, the one breadth-first traversal (`expand`, `expand_rows`, CLI
`verify`), steps each child it emits by `step_core`, the full check.
`_replay` (`node_at`) checks a word's tail syntax by each letter's
`tail_after`, then multiplies the word out as one balanced product
(`generators._word_step`) checked once; only a word that fails is stepped
letter by letter, to name where.  `chain_cores` steps and checks a chain's
first member and adds a constant for the rest.

`verify_node` is one induction on the integers: the root against the root
state, every other node against its parent's core alone, by `state_route`
and the literal `_EXPECTED_STEP` (`label_route` checks the 3x3 layout).

Importing this module loads only the integer core of `generators`; the rest
loads where it is used: `farey`, through `generators`, in `TreeNode.state`
and `.label`, `diophantine` in `verify_node`, `json` and `csv` in the readers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import namedtuple
from types import ModuleType
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import generators
from .errors import (ButterflyError, InvariantViolation, MalformedRecord, NoTail,
                     TailDirectionMismatch)
from .generators import (BABY_KINDS, ROOT_CORE, Core, GeneratorKind, _C_CL, _C_CR, _D_L, _U_L,
                         _check_denominators, _problems, _ratio, _repr_cut, _text, _word_step,
                         label_route, state_route, step_core, tail_generator, tail_side)

if TYPE_CHECKING:
    from .farey import ButterflyLabel, ButterflyState

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
        return generators.ButterflyState.from_core(self.core)

    @property
    def label(self) -> ButterflyLabel:
        _check_denominators(self.core)
        q_r, q_l, s_p, s_m = self.core[:4]
        return generators.ButterflyLabel(q_r, q_l, s_p - s_m)

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


# Each generator that may make a child, with its `qc_row` (u, v), the column
# sums of its A block: the child of (q_R, q_L) has q_c = u q_R + v q_L.
_BABY_ROWS = tuple((kind, *kind.qc_row) for kind in BABY_KINDS)
_TAIL_ROWS = tuple(_BABY_ROWS + ((kind, *kind.qc_row),) for kind in (_C_CL, _C_CR))


def _candidates(q_r: int, q_l: int,
                tail_ok: bool = True) -> tuple[tuple[GeneratorKind, int, int], ...]:
    """The `qc_row` of each generator that may make a child of (q_R, q_L):
    the six babies, then the tail letter when there is a tail and `tail_ok`."""
    tail = tail_generator(q_r, q_l) if tail_ok else None
    return _BABY_ROWS if tail is None else _TAIL_ROWS[tail is _C_CR]


def children(node: TreeNode) -> list[TreeNode]:
    """The six babies plus the chain successor when a tail exists, each checked."""
    core, word = node
    return [TreeNode(step_core(kind, core), word + (kind,))
            for kind, _, _ in _candidates(core[0], core[1])]


def chain_cores(core: Core, steps: int, word: Word) -> Iterator[Core]:
    """Checked cores of the first `steps` chain members below `core`.

    `word` addresses `core` and only names it in errors.  All that can raise
    does so on the call: ValueError for negative `steps`, NoTail when there
    is no tail, and `step_core` on member 1, the one member stepped.  A chain
    step adds (d, d, d, d, e, e) to a core, d = |q_R - q_L| and e the matching
    numerator difference, and keeps d (the tail never flips sides), e and the
    determinant.  So past member 1 no check can fail: each is constant or
    linear in the member's number with slope d, e or d - e, and 0 <= e <= d
    for friendly edges in [0, 1].
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    kind = tail_generator(core[0], core[1])
    if kind is None:
        raise NoTail(f"{word_string(word) or 'root'} has no tail")
    q_r, q_l, s_p, s_m, p_r, p_l = step_core(kind, core) if steps else core
    d, e = q_r - core[0], p_r - core[4]
    return ((q_r + n * d, q_l + n * d, s_p + n * d, s_m + n * d, p_r + n * e, p_l + n * e)
            for n in range(steps))


def chain(node: TreeNode, steps: int) -> list[TreeNode]:
    """The first `steps` members of the chain hanging off the node's tail."""
    kind = tail_generator(node.core[0], node.core[1])
    return [TreeNode(member, node.word + (kind,) * i)
            for i, member in enumerate(chain_cores(node.core, steps, node.word), 1)]


def chain_rows(node: TreeNode, steps: int) -> Iterator[tuple]:
    """The rows of `chain(node, steps)`, from the cores; raises as `chain_cores` does."""
    core, text, depth = node.core, node.word_str, len(node.word)
    members = chain_cores(core, steps, node.word)
    letter = "." + tail_generator(core[0], core[1]).token
    return (record_row(member, text + letter * n, "chain", depth + n)
            for n, member in enumerate(members, 1))


def _replay(word: Word) -> Core:
    """The checked core reached by stepping the word from the root.

    One pass checks the tail syntax with no arithmetic: a chain letter must
    be the `tail_after` of the letter before it, and the root allows none.
    A valid step keeps a valid state valid, so a word that keeps the syntax
    is one `generators._word_step`, applied to the root and checked once.
    Any other word, or a result that fails (only a changed step table makes
    one), is folded letter by letter through `step_core`, to raise what the
    first bad letter raises; TailDirectionMismatch names the prefix, past
    20 letters by the letter's number and both ends.
    """
    tail = None
    for kind in word:
        if kind.is_chain and kind is not tail:
            break
        tail = kind.tail_after
    else:
        a, b, c, d, e, f, g, h = _word_step(word)
        q_r, q_l, s_p, s_m, p_r, p_l = ROOT_CORE
        core = (a * q_r + b * q_l, c * q_r + d * q_l, s_p + e * q_r + f * q_l,
                s_m + g * q_r + h * q_l, a * p_r + b * p_l, c * p_r + d * p_l)
        if not _problems(core):
            return core
    core = ROOT_CORE
    try:
        for i, kind in enumerate(word):
            core = step_core(kind, core)
    except TailDirectionMismatch as exc:
        where = f"prefix {word_string(word[:i + 1])}"
        if i >= 20:  # bound the error line: the letter and both ends
            where = (f"letter {i + 1} ({kind.token}) of prefix "
                     f"{word_string(word[:4])} ... {word_string(word[i - 3:i + 1])}")
        raise TailDirectionMismatch(f"word fails at {where}: {exc}") from exc
    return core


def node_at(word: Union[str, Sequence[Union[GeneratorKind, str]]]) -> TreeNode:
    """Replay a word from the root (`_replay`): a dot-separated string or a
    sequence of generators and tokens.  Every token is converted before the
    replay, so an unknown one raises ValueError whatever the letters before it.
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
    from the parent's denominators (`qc_row`).  Only the children emitted
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
            digits = got.removeprefix("-")
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if digits.isdecimal() and len(digits) > limit > 0:
                raise MalformedRecord(
                    f"field {key} has {len(digits)} digits, past the interpreter's limit of "
                    f"{limit}; raise the limit with -X int_max_str_digits=0 or "
                    "PYTHONINTMAXSTRDIGITS=0") from None
    raise MalformedRecord(f"field {key} is not an integer: {_repr_cut(got)}")


def node_from_record(record: dict) -> TreeNode:
    """Rebuild a node from a record by replaying its word, then cross-check.

    Every numeric field of the record must match the replayed node, so a
    parsed export is verified against the generators, not trusted.  A
    missing or non-integer field or an unknown token raises MalformedRecord.
    """
    if not isinstance(record, dict):
        raise MalformedRecord(f"record is not an object: {_repr_cut(record)}")
    word = _field(record, "word")
    if not isinstance(word, str):
        raise MalformedRecord(f"field word is not a string: {_repr_cut(word)}")
    try:
        node = node_at(word)
    except ValueError as exc:  # an unknown token
        raise MalformedRecord(f"field word: {exc}") from None
    for key, want in zip(RECORD_FIELDS, node_row(node)):
        got = _field(record, key)
        if isinstance(want, str):
            same = got == want
        else:
            same = _int_value(key, got) == want
            want = _json_int(want)
        if not same:
            raise InvariantViolation(f"record field {key}: {_repr_cut(got)} != {_repr_cut(want)}")
    return node


def _located(where: str, record: dict) -> TreeNode:
    try:
        return node_from_record(record)
    except ButterflyError as exc:
        raise type(exc)(f"{where}: {exc}") from None


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
    """Nodes of a CSV export; errors, a field past `csv`'s size limit too, name the data row."""
    import csv
    out = []
    try:
        for row in csv.DictReader(fp):
            out.append(_located(f"row {len(out) + 1}", row))
    except csv.Error as exc:
        raise MalformedRecord(f"row {len(out) + 1}: {exc}") from None
    return out
