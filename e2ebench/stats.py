"""Summary statistics shared by the sweep and compare tools."""

import statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3
