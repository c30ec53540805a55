"""Compare two sets of benchmark results, one row per workload and metric.

Each side is a directory of result files written by run.py (or one file).
Runs are paired by seed where both sides have it, otherwise in order.
A row shows each side's median and quartiles, how many pairs B won
(ties count for neither), and a verdict:

* better      -- B won at least 9/10 of the pairs and the medians differ by
                 more than A's interquartile distance;
* unresolved  -- A's or B's spread (IQR / median) is wider than the bound,
                 unless every run of B beats every run of A;
* worse       -- B's median is worse than A's by more than the bound;
* within      -- none of the above.

Per-layer metrics have no bound: they get "better" or "-".
"""

from __future__ import annotations

import json
from pathlib import Path

from stats import summary


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        data = json.loads(f.read_text())
        if isinstance(data, dict) and "workload" in data and "metrics" in data:
            out.append(data)
    return out


def _pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    by_seed_b = {r["seed"]: r for r in b}
    if all(r["seed"] in by_seed_b for r in a) and len(a) == len(by_seed_b):
        return [(r, by_seed_b[r["seed"]]) for r in a]
    return list(zip(a, b))


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound) -> tuple[int, str]:
    sign = 1 if lower_better else -1
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    sa, sb = summary(a), summary(b)
    iqr_a = sa["q3"] - sa["q1"]
    if pairs and wins >= 0.9 * len(pairs) and abs(sb["median"] - sa["median"]) > iqr_a \
            and sign * (sa["median"] - sb["median"]) > 0:
        return wins, "better"
    if bound is None:
        return wins, "-"
    every_b_better = all(sign * (x - y) > 0 for x in a for y in b)
    spread_a = iqr_a / abs(sa["median"]) if sa["median"] else float("inf")
    spread_b = (sb["q3"] - sb["q1"]) / abs(sb["median"]) if sb["median"] else float("inf")
    if max(spread_a, spread_b) > bound and not every_b_better:
        return wins, "unresolved"
    worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else 0.0
    return wins, "worse" if worse > bound else "within"


def compare(path_a: Path, path_b: Path, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    runs_a, runs_b = load(path_a), load(path_b)
    if not runs_a or not runs_b:
        print("compare: no result files on one side")
        return 2
    keys = sorted({(r["workload"], r["trace"]) for r in runs_a}
                  & {(r["workload"], r["trace"]) for r in runs_b})
    print(f"{'workload':8} {'metric':38} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'wins':>6}  verdict")
    for workload, trace in keys:
        a = sorted((r for r in runs_a if (r["workload"], r["trace"]) == (workload, trace)),
                   key=lambda r: r["seed"])
        b = sorted((r for r in runs_b if (r["workload"], r["trace"]) == (workload, trace)),
                   key=lambda r: r["seed"])
        pairs = _pairs(a, b)
        for name in a[0]["metrics"]:
            if name not in b[0]["metrics"]:
                continue
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            pv = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in pairs]
            m = metrics.get(name, {})
            wins, word = verdict(va, vb, pv, m.get("better", "lower") == "lower", m.get("bound"))
            sa, sb = summary(va), summary(vb)
            print(f"{workload:8} {name:38} "
                  f"{_fmt(sa):>34} {_fmt(sb):>34} {wins:>3}/{len(pv):<2}  {word}")
    return 0


def _fmt(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
