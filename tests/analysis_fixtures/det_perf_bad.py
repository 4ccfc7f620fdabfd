"""DET-PERF fixture: perf_counter outside the reporting allowlist.

The per-rule test checks this file twice: under a protocol path it must
fire, under an allowlisted reporting path (faultlab/explorer.py) it must not.
"""

import time


def measure(run):
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def measure_through_aliases(run):
    """The same reads spelled through aliased and from-imports."""
    import time as t
    from time import perf_counter

    t0 = perf_counter()
    run()
    return t.perf_counter_ns() - t0
