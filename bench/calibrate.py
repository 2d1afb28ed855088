"""A fixed pure-Python kernel that measures how fast the machine is now.

The virtual machines the benchmark runs on change speed by a factor of up
to two, in phases of seconds to minutes, for every program alike: in wall
time and CPU time, in the interpreter start-up as much as in bklkit.  Each
run therefore times this kernel just before and just after every timed
operation, in the same process, and scales the operation's time by
``REFERENCE_S`` over the median kernel time around it (``at_reference``):
a figure reads as the time the operation takes when the kernel takes
``REFERENCE_S``.  The raw timings and every kernel time are kept in the
run record.

The kernel does the kind of work bklkit's hot loops do (tuple keys in
dictionaries, small-integer arithmetic, short-lived objects, sorting) and
does not import bklkit, so no change to bklkit moves it.  It must not be
changed without re-recording every baseline, since it defines the scale.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# About the median kernel time on the 2-vCPU machine the bounds were set on.
REFERENCE_S = 0.02
# Operations on either side whose kernel times scale an operation.
REACH = 4


def kernel() -> int:
    terms: dict = {}
    for i in range(15000):
        key = (i % 31 - 15, i % 7, (i * 13) % 11)
        terms[key] = terms.get(key, 0) + (i * 2654435761) % 97 - 48
    product: dict = {}
    items = sorted(terms.items())[:120]
    for (a, b, c), x in items:
        for (d, e, g), y in items[:100]:
            key = (a + d, b ^ e, c)
            product[key] = product.get(key, 0) + x * y
    return sum(v for v in product.values() if v > 0) % 1000003


def sample() -> float:
    """Seconds taken by one run of the kernel."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def at_reference(times: list, around: list) -> list:
    """Operation times, in run order, scaled to reference speed.

    around[i] holds the kernel times taken just before and just after
    times[i].  Each time is scaled by REFERENCE_S over the median kernel
    time around the operations i - REACH to i + REACH: near enough to
    follow the machine's phases, and enough samples to average out the
    kernel's own noise.
    """
    out = []
    for i, secs in enumerate(times):
        near = [c for pair in around[max(0, i - REACH):i + REACH + 1] for c in pair]
        out.append(secs * REFERENCE_S / statistics.median(near))
    return out
