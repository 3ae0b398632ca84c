"""Host-speed calibration for a shared, noisy machine.

The host this benchmark was defined on (2 vCPUs, Intel Xeon, shared with
other tenants) runs the same Python code up to 1.75 times slower for spells
of tens of seconds to minutes.  Within one spell every pass of a run is slow
alike, so medians inside a run cannot remove it.  The benchmark therefore
runs ``kernel`` between the requests of each pass and scales the pass's times
by ``REFERENCE_S / median kernel seconds``: times are reported as seconds on a
host that runs the kernel in ``REFERENCE_S``.  The kernel does the same kind
of work as cohprobe (word tuples hashed into dicts, sparse elimination over
F_p and Q) but calls no cohprobe code, so a change to the program cannot
move it.

The kernel tracks the host only in part, and not alike for every workload.
On that host, over ten seeds each, scaling cut the spread of wall_s (as a
share of the median) from 34% to 9% on sklyanin-q and from 18% to 10% on
corpus-fp, but in another slow spell raised it from 7% to 14% on sklyanin-q.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.1
_P = 32003


def _eliminate(rng, n, rational):
    rows = {}
    for _ in range(2 * n):
        vec = {rng.randrange(n): rng.randrange(1, 50) for _ in range(8)}
        if rational:
            vec = {k: Fraction(v, rng.randrange(1, 9)) for k, v in vec.items()}
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                inv = 1 / vec[lead] if rational else pow(vec[lead], _P - 2, _P)
                rows[lead] = {k: v * inv if rational else v * inv % _P for k, v in vec.items()}
                break
            coeff = vec[lead]
            for k, v in row.items():
                nv = vec.get(k, 0) - coeff * v
                if not rational:
                    nv %= _P
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
    return len(rows)


def kernel():
    """Fixed pure-Python work; returns its duration in seconds."""
    start = time.perf_counter()
    rng = random.Random(12345)
    table = {}
    for _ in range(300):
        w = tuple(rng.randrange(3) for _ in range(8))
        for i in range(len(w)):
            table[w[i:] + w[:i]] = table.get(w[:i], 0) + 1
    _eliminate(rng, 90, rational=False)
    _eliminate(rng, 22, rational=True)
    return time.perf_counter() - start


def scale(seconds, kernel_seconds):
    """``seconds`` measured while the kernel took ``kernel_seconds``, at reference speed."""
    return seconds * REFERENCE_S / kernel_seconds
