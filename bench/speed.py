"""The host's speed, from a fixed task that needs no charvar.

On a shared machine the same query runs up to half again as long for
seconds to minutes at a time, whenever other tenants load the host.  A run
therefore times a fixed reference task between its queries, off the clock,
once per ``interval`` of query time, and scales each query's time by
``REFERENCE_S`` over the mean reference time just around it, and its
set-up time by ``REFERENCE_S`` over the run's mean reference time: the
times read as they would at the speed at which the reference task takes
``REFERENCE_S``.  The task mixes the two kinds of work charvar does: a
breadth-first closure over Python sets and tuples, like the center
bookkeeping, and small dense SVDs, like the numerics.  It runs with the
garbage collector off, so the heap the program leaves behind does not slow
it.  The raw wall times are kept next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

from queries import subgroup_order

# a typical mean time of one HostSpeed.sample() on a shared 2-core Xeon VM
# (Python 3.11, numpy with OpenBLAS on one thread); a constant, so scaled
# times compare across runs and commits
REFERENCE_S = 0.008

# (Z/2)^8 spanned by its coordinate vectors: 256 elements, 8 generators
_GROUP = {
    "torus_rank": 0,
    "factors": [2] * 8,
    "central_generators": [{"factors": [int(i == j) for j in range(8)]} for i in range(8)],
}
_SVDS = 8


class HostSpeed:
    """Reference-task timings collected over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._matrix = None
        self._last = 0.0

    def sample(self) -> None:
        import numpy  # after the run has pinned BLAS threads

        if self._matrix is None:
            self._matrix = numpy.random.default_rng(0).standard_normal((40, 40))
            numpy.linalg.svd(self._matrix)  # untimed: LAPACK's first call sets up
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            subgroup_order(_GROUP)
            for _ in range(_SVDS):
                numpy.linalg.svd(self._matrix)
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def sample_every(self, interval: float, busy: float) -> None:
        """Sample once per ``interval`` seconds of query time ``busy``, so
        every stretch of the run weighs by its length."""
        while busy - self._last >= interval:
            self._last += interval
            self.sample()

    def reference(self) -> float:
        """Mean reference time: the host's speed averaged over the run, as
        throughput averages it over the queries."""
        return statistics.mean(self.samples)

    def local_scales(self, marks: list[int], width: int = 2) -> list[float]:
        """Per query, ``REFERENCE_S`` over the mean of the ``width`` reference
        times taken just before it and the ``width`` just after it, where
        ``marks[i]`` counts the samples taken before query i."""
        return [
            REFERENCE_S / statistics.mean(self.samples[max(0, k - width) : k + width])
            for k in marks
        ]

    def scale(self) -> float:
        """Factor that turns a wall time of this run into a time at reference speed."""
        return REFERENCE_S / self.reference()
