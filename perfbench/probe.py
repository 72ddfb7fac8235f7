"""Host-speed probe: a fixed exact-arithmetic job that does not use the package.

Usage (normally started by ``run.py`` after every operation)::

    python3 perfbench/probe.py

Eliminates a fixed 40 x 40 matrix of ``Fraction`` entries, the same kind of
work as the package's transition solves, and prints one JSON object: the
``wall`` and ``cpu`` seconds of the elimination alone (interpreter start-up
excluded).  ``run.py``
divides each operation's time by the probes run just before and just after
it, which cancels most of the slow-down other tenants of a shared host cause.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

SIZE = 40


def determinant(size: int) -> Fraction:
    m = [[Fraction((i * 31 + j * 17) % 23 - 11, 1 + (i + 2 * j) % 7) for j in range(size)]
         for i in range(size)]
    for i in range(size):
        m[i][i] += 50
    det = Fraction(1)
    for k in range(size):
        mk, pivot = m[k], m[k][k]
        det *= pivot
        for i in range(k + 1, size):
            mi = m[i]
            factor = mi[k] / pivot
            if factor:
                for j in range(k, size):
                    mi[j] -= factor * mk[j]
    return det


def main() -> int:
    wall, cpu = time.perf_counter(), time.process_time()
    if not determinant(SIZE):
        raise SystemExit("probe: singular matrix")
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    print(json.dumps({"wall": wall, "cpu": cpu}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
