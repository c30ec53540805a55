"""Output checks behind `failed` and `fail_ratio`.

An invocation fails when it exits nonzero, when its output is not strict
JSON (NaN and Infinity are rejected), or when its output disagrees with the
check.  The last kind is a *wrong* answer and makes the run incorrect; the
first two are failures to answer.

Deep-word records are checked against an integer replay made here: the
4x4 action of `canonical_matrices(kind).four_by_four` on
(q_R, q_L, sigma_+, sigma_-), edges from `recover_edges`, and the friendly
determinant p_L*q_R - p_R*q_L = -1.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from typing import Iterator, Optional

from workloads import GOLDEN, VERIFY_COUNTS, Invocation

_JSON_SAFE = 2 ** 53 - 1

_CELL_CLASS = {"CL": "C-cell", "CR": "C-cell", "TL": "chain", "TR": "chain",
               "UL": "E-cell", "UR": "E-cell", "DL": "E-cell", "DR": "E-cell"}


class NoAnswer(Exception):
    """The invocation produced no usable output."""


class WrongAnswer(Exception):
    """The output parsed but disagrees with the check."""


def _reject_constant(name: str) -> None:
    raise NoAnswer(f"output is not strict JSON: {name}")


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise NoAnswer(f"output is not JSON: {exc}") from exc


@contextlib.contextmanager
def _no_digit_limit() -> Iterator[None]:
    """Lift the int/str conversion limit for the benchmark's own checks."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def verdict(inv: Invocation, returncode: int, digest: str, size: int,
            output: Optional[bytes], stderr: str) -> tuple[str, str]:
    """("ok" | "no-answer" | "wrong", reason) for one finished invocation."""
    if returncode != 0:
        first = stderr.strip().splitlines()[0] if stderr.strip() else ""
        return "no-answer", f"exit {returncode}: {first[:200]}"
    try:
        if inv.check == "digest":
            want = GOLDEN[inv.key]
            if (digest, size) != want[:2]:
                raise WrongAnswer(f"sha256 {digest[:12]}.. ({size} bytes) != golden "
                                  f"{want[0][:12]}.. ({want[1]} bytes)")
        elif inv.check == "verify":
            want = f"verified {VERIFY_COUNTS[inv.key]} nodes: all invariants hold\n"
            if output.decode() != want:
                raise WrongAnswer(f"verify printed {output[:120]!r}")
        else:
            with _no_digit_limit():
                _DEEP[inv.check](inv, output.decode())
    except NoAnswer as exc:
        return "no-answer", str(exc)
    except WrongAnswer as exc:
        return "wrong", str(exc)
    return "ok", ""


# ---------------------------------------------------------------- deep words

def _kinds():
    from butterfly_tree.generators import GeneratorKind
    return {kind.token: kind for kind in GeneratorKind}


def _four(token: str):
    from butterfly_tree.generators import canonical_matrices
    return canonical_matrices(_kinds()[token]).four_by_four


def replay(tokens: list[str]) -> list[tuple[int, int, int, int]]:
    """(q_R, q_L, sigma_+, sigma_-) after every prefix, root first."""
    mats = {t: _four(t) for t in set(tokens)}
    v = (1, 1, 1, 1)
    out = [v]
    for t in tokens:
        m = mats[t]
        v = tuple(sum(c * x for c, x in zip(row, v) if c) for row in m)
        out.append(v)
    return out


def _json_int(n: int):
    return n if -_JSON_SAFE <= n <= _JSON_SAFE else str(n)


def expected_record(tokens: list[str], v: tuple[int, int, int, int]) -> dict:
    from butterfly_tree.diophantine import recover_edges
    q_r, q_l, s_p, s_m = v
    p_l, p_r = recover_edges(q_r, q_l)
    if p_l * q_r - p_r * q_l != -1:
        raise WrongAnswer(f"replayed edges are not friendly at depth {len(tokens)}")
    tail = "right" if q_r > q_l else "left" if q_l > q_r else "none"
    return {"word": ".".join(tokens), "qR": _json_int(q_r), "qL": _json_int(q_l),
            "dSigma": _json_int(s_p - s_m), "pL": _json_int(p_l), "pR": _json_int(p_r),
            "pc": _json_int(p_l + p_r), "qc": _json_int(q_r + q_l),
            "sigmaPlus": _json_int(s_p), "sigmaMinus": _json_int(s_m),
            "cellClass": _CELL_CLASS[tokens[-1]] if tokens else "root",
            "tailDirection": tail, "depth": len(tokens)}


def _compare(got: dict, want: dict) -> None:
    if got != want:
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        raise WrongAnswer(f"record at depth {want['depth']} differs in {bad}")


def _check_node(inv: Invocation, text: str) -> None:
    lines = text.splitlines()
    if len(lines) != 1:
        raise WrongAnswer(f"node printed {len(lines)} lines")
    tokens = inv.word.split(".")
    _compare(strict_json(lines[0]), expected_record(tokens, replay(tokens)[-1]))


def _check_chain(inv: Invocation, text: str) -> None:
    records = [strict_json(line) for line in text.splitlines()]
    if len(records) != inv.steps:
        raise WrongAnswer(f"chain printed {len(records)} records, want {inv.steps}")
    tokens = inv.word.split(".")
    v = replay(tokens)[-1]
    side = "TR" if v[0] > v[1] else "TL"
    for record in records:
        tokens = tokens + [side]
        m = _four(side)
        v = tuple(sum(c * x for c, x in zip(row, v) if c) for row in m)
        _compare(record, expected_record(tokens, v))


def _check_scaling(inv: Invocation, text: str) -> None:
    lines = text.splitlines()
    if len(lines) != 1:
        raise WrongAnswer(f"scaling printed {len(lines)} lines")
    got = strict_json(lines[0])
    tokens = inv.word.split(".")
    a, b, c, d = 1, 0, 0, 1
    for t in tokens:
        (e, f), (g, h) = (row[:2] for row in _four(t)[:2])
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    trace = a + d
    t = abs(trace)
    disc = t * t - 4
    if (got.get("word"), got.get("trace")) != (inv.word, trace):
        raise WrongAnswer("scaling word or trace differs from the replayed block")
    if got.get("surd") != {"trace": t, "discriminant": disc}:
        raise WrongAnswer("scaling surd differs from (|trace|, trace^2 - 4)")
    value = got.get("value")
    if t.bit_length() < 1000:  # a float view exists only below ~2**1024
        want_value = (t + math.sqrt(disc)) / 2
        if not isinstance(value, float) or not math.isclose(value, want_value, rel_tol=1e-12):
            raise WrongAnswer(f"scaling value {value!r} != {want_value}")
    cf = got.get("continuedFraction", {})
    terms, pre, period = cf.get("terms", []), cf.get("preperiod", []), cf.get("period", [])
    if len(terms) != inv.steps or not period:
        raise WrongAnswer("continued fraction has the wrong length or no period")
    cycle = list(pre)
    while len(cycle) < len(terms):
        cycle += period
    if cycle[:len(terms)] != terms:
        raise WrongAnswer("continued fraction terms do not follow preperiod + period")
    _check_cf_prefix(t, disc, terms)


def _above(t: int, disc: int, h: int, k: int) -> bool:
    """Whether x = (t + sqrt(disc))/2 exceeds h/k (k > 0), exactly."""
    u = 2 * h - t * k
    return u < 0 or disc * k * k > u * u


def _check_cf_prefix(t: int, disc: int, terms: list[int]) -> None:
    """x lies strictly between the last convergent and its neighbour mediant.

    Those two fractions bound the reals whose expansion starts with `terms`,
    so this proves the terms without running the program's recurrence.
    """
    if any(a < 1 for a in terms[1:]):
        raise WrongAnswer("continued fraction has a non-positive partial quotient")
    h0, k0, h1, k1 = 0, 1, 1, 0
    for a in terms:
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
    lo, hi = (h1, k1), (h1 + h0, k1 + k0)
    if _above(t, disc, *lo) == _above(t, disc, *hi):
        raise WrongAnswer("continued fraction terms are not the expansion of the surd")


_DEEP = {"node": _check_node, "chain": _check_chain, "scaling": _check_scaling}
