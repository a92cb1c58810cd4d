"""Pure helpers of perfbench/run.py: the quartile spread and span
self times. Kept free of I/O so perfbench/test_benchlib.py can pin
them down."""

import statistics


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives
    them. Needs at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _covered(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time per span name, in the spans' time unit.

    `spans` is a list of (name, start, end, parent) with parent the
    index of the enclosing span or -1. A span's self time is its
    duration minus the part of its interval its child spans cover;
    children are clipped to the parent's interval, and overlapping
    children count once.
    """
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = {}
    for index, (name, start, end, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[index]
                   if min(e, end) > max(s, start)]
        own = (end - start) - _covered(clipped)
        totals[name] = totals.get(name, 0) + own
    return totals
