"""Host speed, measured by a fixed reference kernel, to scale times by.

Other tenants of a shared host slow the program by half again or twice, in
phases that last from seconds to many minutes, and the CPU time rises with
the wall time, so no clock reading tells the slowdown apart from the
program's own cost. A fixed kernel timed next to the program does: it runs
the same kind of Python work as the package (series products with Fraction
coefficients, which allocate as they go) but touches no code of the
package, so its time moves only with the host. It does not follow every
slowdown exactly; BASELINE.md says how closely it did on the baseline
machine.

Every time metric is reported in reference seconds: a measured time times
``REF_S`` over the kernel's time measured next to it. ``REF_S`` is about the
kernel's median time during the baseline runs, on a 2 vCPU Intel Xeon with
Python 3.11, so there reference seconds read about as wall seconds. A
change that makes the program slower or faster moves reference seconds by
the same share, since the kernel stays as it is.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_S = 0.0014  # seconds; it sets the unit and nothing else
INTERVAL_S = 0.1  # least time between two samples during a batch
REPEATS = 3  # a sample is the fastest of this many kernel runs

_A = [Fraction((3 ** i + 1) * (-1) ** i, i + 2) for i in range(16)]
_B = [Fraction(5 ** (i % 9) - 2, i % 7 + 1) for i in range(16)]


def kernel() -> list:
    """One product of two fixed 16-term series with Fraction coefficients."""
    out: list = [0] * (len(_A) + len(_B))
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    return out


def sample() -> float:
    """Seconds the kernel takes now: the fastest of ``REPEATS`` runs."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        start = clock()
        kernel()
        best = min(best, clock() - start)
    return best


def warm_up(seconds: float = 0.05) -> None:
    """Run the kernel until the interpreter has specialized it."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        kernel()


class Pacer:
    """Kernel samples taken between a batch's ops, at most every ``INTERVAL_S``.

    Call ``tick(i)`` just before op i starts and ``finish(n)`` after the last
    of n ops; ``scales(n)`` then gives each op's factor from measured to
    reference seconds, from the samples taken just before and just after it.
    ``spent_s`` is the wall time the samples took, which belongs to no op.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []  # (index of the next op, kernel seconds)
        self.spent_s = 0.0
        self._due = 0.0

    def _take(self, index: int, now: float) -> None:
        self.marks.append((index, sample()))
        after = time.perf_counter()
        self.spent_s += after - now
        self._due = after + INTERVAL_S

    def tick(self, index: int) -> None:
        now = time.perf_counter()
        if now >= self._due:
            self._take(index, now)

    def finish(self, ops: int) -> None:
        self._take(ops, time.perf_counter())

    def scales(self, ops: int) -> list[float]:
        out = []
        k = 0
        for i in range(ops):
            while k + 2 < len(self.marks) and self.marks[k + 1][0] <= i:
                k += 1
            before, after = self.marks[k][1], self.marks[k + 1][1]
            out.append(2 * REF_S / (before + after))
        return out

    def median_kernel_s(self) -> float:
        return statistics.median(d for _, d in self.marks)

    def median_scale(self) -> float:
        return REF_S / self.median_kernel_s()
