"""The traced memory peak of one call, for the tests' memory bounds."""

from __future__ import annotations

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
