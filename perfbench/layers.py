"""In-process mirrors of the workloads and the per-layer metrics.

Each mirror makes the same library calls, in the same order, as the CLI
handlers of its workload's invocations, and writes into a byte-counting
sink instead of a pipe.  Run with a NullTracer it is the untraced
baseline; run with a Tracer it records a span around every call into a
module's public functions, made from these files (nothing inside the
library is patched).  After each traced mirror, "probes" time one layer
at a time over the nodes the mirror saw, for the per-call figures.

Every traced run goes through all four mirrors, so every per-layer metric
is measured the same way whichever workload is being traced; only
`cli.overhead.s`, `trace.overhead.s`, `generators.max_qc_bits` and
`fail_ratio` belong to the traced workload itself.
"""

from __future__ import annotations

import io
import json
import time
import tracemalloc
from collections import Counter
from math import gcd

from butterfly_tree import apollonian as apo
from butterfly_tree import diophantine, farey, generators, intmat, pythagoras, scaling, tree
from butterfly_tree import skeleton as skel

from tracing import NullTracer, Tracer
from workloads import Sizes, replay_prefix

KIND_TOKENS = ("CL", "CR", "UL", "UR", "DL", "DR", "TL", "TR")
CORRESPONDENCE_STEPS = ("h1", "h2", "h3", "U_L", "U_R")
SUPER_ORBIT_SEED = (-1, 2, 2, 3)

# name -> (unit, run, span): the layer's self time, in seconds ("s") or
# per item of the span's count ("ns").
SPAN_METRICS = {
    "generators.apply_state.ns": ("ns", "expand", "generators.apply_state"),
    "generators.apply_label.ns": ("ns", "expand", "generators.apply_label"),
    "generators.apply_state.deep_ns": ("ns", "deep", "generators.apply_state"),
    "generators.apply_label.deep_ns": ("ns", "deep", "generators.apply_label"),
    "intmat.mat_vec.ns": ("ns", "expand", "intmat.mat_vec"),
    "tree.expand.s": ("s", "expand", "tree.expand"),
    "tree.node_record.ns": ("ns", "expand", "tree.node_record"),
    "tree.write_jsonl.s": ("s", "expand", "tree.write_jsonl"),
    "tree.write_csv.s": ("s", "expand", "tree.write_csv"),
    "tree.read_jsonl.s": ("s", "expand", "tree.read_jsonl"),
    "tree.read_csv.s": ("s", "expand", "tree.read_csv"),
    "tree.verify_node.ns": ("ns", "verify", "tree.verify_node"),
    "tree.node_at.ns_per_letter": ("ns", "verify", "tree.node_at"),
    "tree.node_at.deep_ns_per_letter": ("ns", "deep", "tree.node_at"),
    "tree.chain.ns": ("ns", "views", "tree.chain"),
    "tree.chain.deep_ns": ("ns", "deep", "tree.chain"),
    "diophantine.center_gap_index.ns": ("ns", "verify", "diophantine.center_gap_index"),
    "diophantine.recover_edges.ns": ("ns", "verify", "diophantine.recover_edges"),
    "farey.farey_difference.ns": ("ns", "verify", "farey.farey_difference"),
    "diophantine.gap_labels.s": ("s", "views", "diophantine.gap_labels"),
    "skeleton.cell_geometry.ns": ("ns", "views", "skeleton.cell_geometry"),
    "skeleton.tail_triangle.ns": ("ns", "views", "skeleton.tail_triangle"),
    "skeleton.render_svg.s": ("s", "views", "skeleton.render_svg"),
    "skeleton.wannier_lines.s": ("s", "views", "skeleton.wannier_lines"),
    "apollonian.correspondence_search.s": ("s", "views", "apollonian.correspondence_search"),
    "apollonian.super_orbit.s": ("s", "views", "apollonian.super_orbit"),
    "pythagoras.triple_tree.s": ("s", "views", "pythagoras.triple_tree"),
    "pythagoras.primitive_triple_oracle.s": ("s", "views", "pythagoras.primitive_triple_oracle"),
    "scaling.word_block.ns_per_letter": ("ns", "deep", "scaling.word_block"),
    "scaling.cf_expansion.s": ("s", "deep", "scaling.cf_expansion"),
}

# Everything a traced run reports as a metric, with units.
PER_LAYER_UNITS = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    "tree.expand.children_built": "count",
    "tree.expand.children_emitted": "count",
    "tree.expand.useful_ratio": "ratio",
    "tree.expand.peak_mib": "MiB",
    "generators.max_qc_bits": "bits",
    "cli.overhead.s": "s",
    "trace.overhead.s": "s",
    "fail_ratio": "ratio",
}


class Sink:
    """Stands in for stdout and discards what is written."""

    def write(self, text: str) -> int:
        return len(text)


class ExpandSeen:
    """What the expand mirror saw: parent/child pairs and node counts."""

    def __init__(self) -> None:
        self.pairs: list = []  # (kind, parent state, parent label)
        self.depths: Counter = Counter()
        self.kinds: Counter = Counter()
        self.capped: list = []  # nodes emitted under --max-qc
        self.max_bits = 0
        self._levels: dict = {}  # word -> node, for the last two depths

    def full_tree(self, node) -> None:
        if node.word:
            parent = self._levels[node.word[:-1]]
            self.pairs.append((node.word[-1], parent.state, parent.label))
            self.kinds[node.word[-1].token] += 1
            if len(node.word) > len(next(reversed(self._levels))):
                self._levels = {w: n for w, n in self._levels.items()
                                if len(w) == len(node.word) - 1}
        self._levels[node.word] = node
        self.depths[node.depth] += 1
        self.max_bits = max(self.max_bits, node.state.q_c.bit_length())


# ------------------------------------------------------------------ mirrors

def mirror_expand(tr, sz: Sizes, words: list[str]):
    seen = ExpandSeen()
    limits = tree.ExpansionLimits(sz.jsonl_depth, sz.expand_cap)
    capped = tree.ExpansionLimits(sz.expand_depth, sz.expand_cap, sz.expand_max_qc)
    with tr.span("cli.expand"):
        i = tr.open("tree.write_jsonl")
        tree.write_jsonl(tr.iter("tree.expand", tree.expand(limits), seen.full_tree), Sink())
        tr.close(i)
    csv_text = io.StringIO()
    with tr.span("cli.expand"):
        i = tr.open("tree.write_csv")
        tree.write_csv(tr.iter("tree.expand", tree.expand(capped), seen.capped.append),
                       csv_text)
        tr.close(i)
    seen.csv = csv_text.getvalue()
    return seen


def mirror_verify(tr, sz: Sizes, words: list[str]):
    limits = tree.ExpansionLimits(sz.verify_depth, sz.verify_cap)
    sink = Sink()
    with tr.span("cli.verify"):
        by_word = {}
        count = 0
        bad = []
        for node in tr.iter("tree.expand", tree.expand(limits)):
            by_word[node.word] = node
            parent = by_word.get(node.word[:-1]) if node.word else None
            i = tr.open("tree.verify_node")
            report = tree.verify_node(node, parent)
            tr.close(i)
            count += 1
            if not report.ok:
                bad.append(report)
        sink.write(f"verified {count} nodes: all invariants hold\n")
    if bad:
        raise RuntimeError(f"in-process verify found {len(bad)} failing nodes")
    return list(by_word.values())


def mirror_views(tr, sz: Sizes, words: list[str]):
    sink = Sink()
    cells: list = []
    limits = tree.ExpansionLimits(sz.render_depth, sz.render_cap)
    with tr.span("cli.render"):
        i = tr.open("skeleton.render_svg")
        document = skel.render_svg(tr.iter("tree.expand", tree.expand(limits), cells.append),
                                   skel.RenderOptions())
        tr.close(i)
        sink.write(document)
    with tr.span("cli.wannier"):
        with tr.span("skeleton.wannier_lines"):
            lines = skel.wannier_lines(sz.wannier_qmax)
        for line in lines:
            sink.write(json.dumps({"sigma": line.sigma, "tau": line.tau,
                                   "p": line.flux.numerator, "q": line.flux.denominator,
                                   "r": line.r}) + "\n")
    with tr.span("cli.apollonian"):
        report = {}
        for step in CORRESPONDENCE_STEPS:
            with tr.span("apollonian.correspondence_search"):
                found = apo.correspondence_search(step)
            report[step] = {
                "pairsTested": found.pairs_tested,
                "matches": [{"word": ".".join(f"S{i}" for i in word),
                             "permutation": list(perm)} for word, perm in found.matches]}
        sink.write(json.dumps(report, indent=2) + "\n")
    with tr.span("cli.pyth"):
        c_max = sz.oracle_cmax
        with tr.span("pythagoras.primitive_triple_oracle"):
            want = {t.leg_set for t in pythagoras.primitive_triple_oracle(c_max)}
        with tr.span("pythagoras.triple_tree"):
            got = [triple.leg_set for _, triple in pythagoras.triple_tree(c_max=c_max)]
        ok = set(got) == want and len(got) == len(want)
        sink.write(json.dumps({"cMax": c_max, "treeCount": len(got),
                               "oracleCount": len(want), "match": ok}) + "\n")
    return cells


def mirror_deep(tr, sz: Sizes, words: list[str]):
    sink = Sink()
    ends = []
    for word in words:
        head = replay_prefix(word, sz)
        letters = head.count(".") + 1
        with tr.span("cli.node"):
            i = tr.open("tree.node_at", letters)
            node = tree.node_at(head)
            tr.close(i)
            sink.write(json.dumps(tree.node_record(node)) + "\n")
        with tr.span("cli.chain"):
            i = tr.open("tree.node_at", letters)
            node = tree.node_at(head)
            tr.close(i)
            i = tr.open("tree.chain", sz.chain_steps)
            members = tree.chain(node, sz.chain_steps)
            tr.close(i)
            tree.write_jsonl(members, sink)
            ends.append(members[-1])
        with tr.span("cli.scaling"):
            kinds = tree.parse_word(word)
            i = tr.open("scaling.word_block", len(kinds))
            block = scaling.word_block(kinds)
            tr.close(i)
            i = tr.open("scaling.scaling_exponent", len(kinds))
            surd = scaling.scaling_exponent(kinds)
            tr.close(i)
            i = tr.open("scaling.cf_expansion")
            cf = scaling.cf_expansion(surd, sz.cf_terms)
            tr.close(i)
            try:
                sink.write(json.dumps({
                    "word": tree.word_string(kinds),
                    "trace": block[0][0] + block[1][1],
                    "surd": {"trace": surd.trace, "discriminant": surd.discriminant},
                    "value": surd.value,
                    "continuedFraction": {"preperiod": list(cf.preperiod),
                                          "period": list(cf.period),
                                          "terms": list(cf.terms)}}) + "\n")
            except ValueError:
                pass  # the CLI exits 2 here: the int-to-str digit limit
    return ends


MIRRORS = {"expand": mirror_expand, "verify": mirror_verify,
           "views": mirror_views, "deep": mirror_deep}


# ------------------------------------------------------------------- probes

def probe_expand(tr: Tracer, sz: Sizes, words: list[str], seen: ExpandSeen) -> dict:
    pairs, capped = seen.pairs, seen.capped
    with tr.span("generators.apply_state", len(pairs)):
        for kind, state, _ in pairs:
            generators.apply_state(kind, state)
    with tr.span("generators.apply_label", len(pairs)):
        for kind, _, label in pairs:
            generators.apply_label(kind, label)
    four = {k: generators.canonical_matrices(k).four_by_four for k in generators.GeneratorKind}
    vectors = [(four[k], (s.q_r, s.q_l, s.sigma_plus, s.sigma_minus)) for k, s, _ in pairs]
    with tr.span("intmat.mat_vec", len(vectors)):
        for matrix, vector in vectors:
            intmat.mat_vec(matrix, vector)
    with tr.span("tree.node_record", len(capped)):
        for node in capped:
            tree.node_record(node)
    with tr.span("tree.read_csv", len(capped)):
        tree.read_csv(io.StringIO(seen.csv))
    jsonl = io.StringIO()
    tree.write_jsonl(capped, jsonl)
    jsonl.seek(0)
    with tr.span("tree.read_jsonl", len(capped)):
        tree.read_jsonl(jsonl)
    built = sum(6 + (n.state.tail_generator is not None)
                for n in capped if n.depth < sz.expand_depth)
    emitted = len(capped) - 1
    limits = tree.ExpansionLimits(sz.expand_depth, sz.expand_cap, sz.expand_max_qc)
    with tr.span("bench.tracemalloc"):
        tracemalloc.start()
        try:
            for _ in tree.expand(limits):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out = {"counts": {"nodes_per_depth": [seen.depths.get(d, 0)
                                          for d in range(max(seen.depths) + 1)],
                      "nodes_per_kind": {t: seen.kinds.get(t, 0) for t in KIND_TOKENS}},
           "tree.expand.children_built": built,
           "tree.expand.children_emitted": emitted,
           "tree.expand.useful_ratio": emitted / built,
           "tree.expand.peak_mib": peak / 2 ** 20,
           "generators.max_qc_bits": seen.max_bits}
    return out


def probe_verify(tr: Tracer, sz: Sizes, words: list[str], nodes: list) -> dict:
    sample = nodes[::4]
    with tr.span("tree.node_at", sum(len(n.word) for n in sample)):
        for node in sample:
            tree.node_at(node.word)
    states = [n.state for n in nodes]
    with tr.span("diophantine.center_gap_index", len(states)):
        for state in states:
            diophantine.center_gap_index(state)
    edges = [(s.q_r, s.q_l) for s in states]
    with tr.span("diophantine.recover_edges", len(edges)):
        for q_r, q_l in edges:
            diophantine.recover_edges(q_r, q_l)
    flux_pairs = [(s.left, s.right) for s in states if s.q_r != s.q_l]
    with tr.span("farey.farey_difference", len(flux_pairs)):
        for left, right in flux_pairs:
            farey.farey_difference(left, right)
    return {"generators.max_qc_bits": max(s.q_c.bit_length() for s in states)}


def probe_views(tr: Tracer, sz: Sizes, words: list[str], cells: list) -> dict:
    preview = skel.RenderOptions().chain_preview
    tailed = [n for n in cells if n.state.tail_generator is not None]
    with tr.span("skeleton.cell_geometry", len(cells)):
        for node in cells:
            skel.cell_geometry(node)
    with tr.span("skeleton.tail_triangle", len(tailed)):
        for node in tailed:
            skel.tail_triangle(node)
    with tr.span("tree.chain", preview * len(tailed)):
        for node in tailed:
            tree.chain(node, preview)
    fluxes = [(p, q) for q in range(2, sz.wannier_qmax + 1) for p in range(1, q)
              if gcd(p, q) == 1]
    with tr.span("diophantine.gap_labels", len(fluxes)):
        for p, q in fluxes:
            diophantine.gap_labels(p, q)
    with tr.span("apollonian.super_orbit"):
        apo.super_orbit(SUPER_ORBIT_SEED, sz.super_orbit_depth)
    return {"generators.max_qc_bits": max(n.state.q_c.bit_length() for n in cells)}


def probe_deep(tr: Tracer, sz: Sizes, words: list[str], ends: list) -> dict:
    kind_words = [tree.parse_word(replay_prefix(w, sz)) for w in words]
    letters = sum(len(k) for k in kind_words)
    with tr.span("generators.apply_state", letters):
        for kinds in kind_words:
            state = generators.ROOT_STATE
            for kind in kinds:
                state = generators.apply_state(kind, state)
    with tr.span("generators.apply_label", letters):
        for kinds in kind_words:
            label = generators.ROOT_LABEL
            for kind in kinds:
                label = generators.apply_label(kind, label)
    return {"generators.max_qc_bits": max(n.state.q_c.bit_length() for n in ends)}


PROBES = {"expand": probe_expand, "verify": probe_verify,
          "views": probe_views, "deep": probe_deep}


# -------------------------------------------------------------- entry points

def untraced_seconds(workload: str, sz: Sizes, words: list[str]) -> float:
    """Wall time of one mirror of `workload` with tracing off."""
    start = time.perf_counter()
    MIRRORS[workload](NullTracer(), sz, words)
    return time.perf_counter() - start


def traced_suite(tr: Tracer, sz: Sizes, words: list[str]) -> tuple[dict, dict]:
    """Every mirror traced, then its probes.

    Returns (metrics shared by all workloads, per-workload extras) where the
    extras hold each mirror's traced wall time and its max_qc_bits; the
    shared dict's "counts" entry holds node counts of the expand trees.
    """
    shared: dict = {}
    own: dict = {}
    for name, mirror in MIRRORS.items():
        with tr.run(name):
            start = time.perf_counter()
            seen = mirror(tr, sz, words)
            mirror_s = time.perf_counter() - start
            found = PROBES[name](tr, sz, words, seen)
        del seen
        own[name] = {"mirror_s": mirror_s,
                     "generators.max_qc_bits": found.pop("generators.max_qc_bits")}
        shared.update(found)
    times = tr.self_times()
    for metric, (unit, run, span) in SPAN_METRICS.items():
        agg = times.get(run, {}).get(span)
        if agg is None:
            raise RuntimeError(f"no {span} span in the {run} mirror")
        shared[metric] = (agg["self_ns"] / 1e9 if unit == "s"
                          else agg["self_ns"] / max(agg["items"], 1))
    return shared, own
