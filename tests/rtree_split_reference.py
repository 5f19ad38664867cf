"""Guttman's quadratic split as a pair of Python loops, kept as the test
reference.

This is the body ``RTreeIndex._quadratic_split`` had before PickSeeds and
PickNext were vectorised: PickSeeds scans the entry pairs ``(i, j)``, ``i <
j``, in row-major order and keeps the first strict maximum of the wasted
area; PickNext scans the remaining entries in order and keeps the first
strict maximum of the preference difference.  Areas are left-to-right
per-axis products (``math.prod``).  The groups and boxes it returns define
what the production split must reproduce bit for bit
(``tests/properties/test_prop_build.py``).
"""

from __future__ import annotations

import math

import numpy as np


def _union(lo1, hi1, lo2, hi2):
    return np.minimum(lo1, lo2), np.maximum(hi1, hi2)


def _area(lo, hi) -> float:
    return math.prod((hi - lo).tolist())


def reference_quadratic_split(entries, min_entries: int):
    """Guttman's quadratic PickSeeds / PickNext distribution."""
    n = len(entries)
    worst, seeds = -np.inf, (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = _union(entries[i][0], entries[i][1], entries[j][0], entries[j][1])
            waste = _area(lo, hi) - _area(entries[i][0], entries[i][1]) - _area(
                entries[j][0], entries[j][1]
            )
            if waste > worst:
                worst, seeds = waste, (i, j)
    group_a = [entries[seeds[0]]]
    group_b = [entries[seeds[1]]]
    box_a = (entries[seeds[0]][0].copy(), entries[seeds[0]][1].copy())
    box_b = (entries[seeds[1]][0].copy(), entries[seeds[1]][1].copy())
    rest = [entries[k] for k in range(n) if k not in seeds]
    while rest:
        # Honour the minimum fill requirement.
        if len(group_a) + len(rest) == min_entries:
            group_a.extend(rest)
            for e in rest:
                box_a = _union(box_a[0], box_a[1], e[0], e[1])
            break
        if len(group_b) + len(rest) == min_entries:
            group_b.extend(rest)
            for e in rest:
                box_b = _union(box_b[0], box_b[1], e[0], e[1])
            break
        # PickNext: entry with the greatest preference difference.
        best_k, best_diff, best_growth = 0, -np.inf, (0.0, 0.0)
        for k, e in enumerate(rest):
            ga = _area(*_union(box_a[0], box_a[1], e[0], e[1])) - _area(*box_a)
            gb = _area(*_union(box_b[0], box_b[1], e[0], e[1])) - _area(*box_b)
            diff = abs(ga - gb)
            if diff > best_diff:
                best_k, best_diff, best_growth = k, diff, (ga, gb)
        e = rest.pop(best_k)
        ga, gb = best_growth
        pick_a = ga < gb or (ga == gb and _area(*box_a) <= _area(*box_b))
        if pick_a:
            group_a.append(e)
            box_a = _union(box_a[0], box_a[1], e[0], e[1])
        else:
            group_b.append(e)
            box_b = _union(box_b[0], box_b[1], e[0], e[1])
    return (group_a, box_a), (group_b, box_b)
