"""Summary statistics of repeated timings, and the parent/change verdict.

The verdict rule: a change has *improved* a metric when it wins at least
nine tenths of the parent/change pairs (ties count for neither side) and the
medians differ, in the better direction, by more than the parent's own
spread between quartiles.  Otherwise, when either side's spread between
quartiles is wider than the metric's bound (as a share of its median), the
metric is *unresolved* unless every run of the change reads better than every
run of the parent.  Otherwise it has *regressed* when the change's median is
worse than the parent's by more than the bound, and is *within bound* when
it is not.
"""

from __future__ import annotations

import statistics

__all__ = ["quartiles", "summarize", "tail_percentile", "verdict", "IMPROVED", "WITHIN",
           "REGRESSED", "UNRESOLVED"]

IMPROVED = "improved"
WITHIN = "within bound"
REGRESSED = "regressed"
UNRESOLVED = "unresolved"

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles``
    gives them (its default exclusive method); one value is its own
    quartiles."""
    values = sorted(float(v) for v in values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """``(p, value)`` for the highest percentile in (99.9, 99, 95, 90, 75, 50)
    with at least ten samples beyond it, or ``None`` when there are too few
    samples for any."""
    values = sorted(float(v) for v in values)
    for p in _PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            rank = p / 100.0 * (len(values) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(values) - 1)
            return p, values[lo] + (values[hi] - values[lo]) * (rank - lo)
    return None


def summarize(values) -> dict:
    """Median, quartiles, sample count and, where the count allows, the tail
    percentile of a list of samples."""
    q1, median, q3 = quartiles(values)
    out = {"median": median, "q1": q1, "q3": q3, "count": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_percentile"], out["tail_value"] = tail
    return out


def _better(a: float, b: float, higher_is_better: bool) -> bool:
    return a > b if higher_is_better else a < b


def verdict(parent, change, *, bound: float, higher_is_better: bool) -> dict:
    """Compare two lists of per-run values of one metric.

    ``parent[i]`` and ``change[i]`` form pair ``i``; the lists must have
    equal length.  Returns the verdict with the numbers it rests on.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs, at least one")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(_better(c, p, higher_is_better) for p, c in zip(parent, change))
    pairs = len(parent)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else float("inf"),
                 (c_q3 - c_q1) / abs(c_med) if c_med else float("inf"))
    worse_by = (p_med - c_med if higher_is_better else c_med - p_med) / abs(p_med) \
        if p_med else 0.0
    all_better = all(_better(c, p, higher_is_better) for c in change for p in parent)

    if (wins >= 0.9 * pairs and _better(c_med, p_med, higher_is_better)
            and abs(c_med - p_med) > p_q3 - p_q1):
        result = IMPROVED
    elif spread > bound and not all_better:
        result = UNRESOLVED
    elif worse_by > bound:
        result = REGRESSED
    else:
        result = WITHIN
    return {"verdict": result, "pairs": pairs, "wins": wins,
            "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
            "spread": spread, "worse_by": worse_by}
