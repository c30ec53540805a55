"""Medians and quartiles, as `statistics.quantiles(values, n=4)` gives them.

`statistics` is imported on use: the benchmark's parent keeps its memory
small while children run (see child.py).
"""

from __future__ import annotations


def summary(values: list[float]) -> dict:
    """median, q1, q3 and n of the samples; a single value is its own quartiles."""
    import statistics
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}

