"""Host pace: how fast this host runs Python right now.

On a shared 2-vCPU KVM guest (2.1 GHz Xeon, CPython 3.11), identical work
ran anywhere from 1.0x to 1.8x its best time, in spells lasting from under
a second to over a minute, as neighbours came and went.  Unscaled, request
latencies of one build spread 20-35 % between runs; that hides any
regression smaller than that.

So every timed call is bracketed by a fixed pure-Python kernel that uses no
latinsq code, and its time is scaled by REFERENCE_S over the mean of the two
kernel times around it.  A change to latinsq moves the call and not the
kernel, so it still shows in full; a slower host moves both and cancels.
The kernel makes no container objects, so the garbage collector never runs
inside it.  Raw wall times are reported next to the scaled ones.
"""

from time import perf_counter

REFERENCE_S = 0.001  # kernel time that scaled figures are expressed at
ITERATIONS = 950  # about 1 ms at the best pace of a 2.1 GHz Xeon vCPU with CPython 3.11
_MASK = (1 << 64) - 1
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}


def kernel_seconds():
    """Wall time of one pass of the fixed kernel."""
    table = _TABLE
    x = 0x9E3779B97F4A7C15
    acc = 0
    started = perf_counter()
    for _ in range(ITERATIONS):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        acc += table[x >> 56] ^ (x & 0xFFFF).bit_count()
        acc ^= len(str(x >> 40)) + int(str(x & 0xFFFFF)[:4])
    return perf_counter() - started


def pace(budget=0.0):
    """Mean kernel time over at least one kernel and ``budget`` seconds."""
    spent, runs = kernel_seconds(), 1
    while spent < budget:
        spent += kernel_seconds()
        runs += 1
    return spent / runs


class Pacer:
    """Scales timed calls by the host pace measured around each one."""

    SHARE = 0.03  # kernel time after a call, as a share of the call's time

    def __init__(self):
        self.kernels = [pace()]

    def scale(self, seconds):
        """Measure the pace after a call of ``seconds``; return it scaled."""
        self.kernels.append(pace(seconds * self.SHARE))
        return seconds * 2 * REFERENCE_S / (self.kernels[-2] + self.kernels[-1])

    def slowdown(self):
        """Median kernel time over REFERENCE_S: above 1, the host ran slow."""
        ordered = sorted(self.kernels)
        return ordered[len(ordered) // 2] / REFERENCE_S
