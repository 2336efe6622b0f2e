"""Machine-speed calibration, interleaved with the jobs.

On a shared 2-core virtual machine the speed of the same Python code
changes by up to about 2x for seconds to minutes at a time, because of
load outside the machine.  A fixed block of pure-Python exact arithmetic
(integer fraction-free elimination and a Fraction contraction, the
instruction mix of rbfam, but none of its code) is timed between jobs.
``speed()`` is ``REFERENCE_BLOCK_S / block time``; run.py scales each
pass's latencies by the mean speed of its blocks, so reported seconds are
seconds at a fixed reference speed and most of a change of machine speed
between runs cancels.  The unscaled seconds are printed as well.
"""
from fractions import Fraction
from itertools import product
from time import perf_counter

CHUNKS_PER_BLOCK = 120
# Time of one block on an idle 2-core Xeon virtual machine, Python 3.11.  The
# value only sets the scale of the reported seconds.
REFERENCE_BLOCK_S = 0.075


def _chunk():
    # fraction-free elimination: growing integers, row lists rebuilt
    n = 12
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        pc = rows[c][c]
        for i in range(c + 1, n):
            ic = rows[i][c]
            rows[i] = [(pc * a - ic * b) // prev for a, b in zip(rows[i], rows[c])]
        prev = pc
    # multilinear contraction over index tuples with Fraction entries
    d = 3
    entries = tuple(Fraction((k * 5 + 3) % 7 - 3, 1 + k % 2) for k in range(d ** 4))
    args = [tuple(Fraction(j - 1, 2) if (j + a) % 3 else Fraction(0) for j in range(d)) for a in range(3)]
    out = {}
    for key in product(range(2), repeat=2):
        acc = [Fraction(0)] * d
        for flat, idx in enumerate(product(range(d), repeat=3)):
            w = args[0][idx[0]] * args[1][idx[1]] * args[2][idx[2]]
            if not w:
                continue
            for k in range(d):
                c = entries[k * d ** 3 + flat]
                if c:
                    acc[k] = acc[k] + c * w
        out[key] = tuple(acc)
    return out


def speed():
    """Reference block time over measured block time: 1 at reference speed, below 1 when slower."""
    start = perf_counter()
    for _ in range(CHUNKS_PER_BLOCK):
        _chunk()
    return REFERENCE_BLOCK_S / (perf_counter() - start)
