"""Work-group execution context.

A kernel body receives one of these per work-group.  It exposes the
memory-access primitives the attacks need:

* ``read`` — a single load by one thread;
* ``parallel_read`` — a batch of loads issued with the device's memory
  parallelism (the paper probes all 16 ways of an LLC set with 16 threads,
  §III-B/§III-E — this is the "GPU parallelism matches the CPU's higher
  serial rate" optimization);
* ``start_timer`` — spin up the §III-B SLM counter using the threads above
  the first wavefront.

All methods are generators meant for ``yield from`` inside a kernel body.
"""

from __future__ import annotations

import typing

from repro.errors import GpuModelError
from repro.sim import AllOf
from repro.sim.process import Process

if typing.TYPE_CHECKING:
    from repro.gpu.timer import SlmTimer
    from repro.soc.machine import SoC
    from repro.soc.slm import SharedLocalMemory


class WorkGroupCtx:
    """Execution context handed to a kernel body for one work-group."""

    def __init__(
        self,
        soc: "SoC",
        workgroup_id: int,
        subslice: int,
        threads: int,
        extra_timer_jitter: float = 0.0,
    ) -> None:
        self.soc = soc
        self.workgroup_id = workgroup_id
        self.subslice = subslice
        self.threads = threads
        self.wavefront_size = soc.config.gpu.wavefront_size
        self.mem_parallelism = soc.config.gpu.mem_parallelism
        self._issue_fs = soc.gpu_cycles_fs(soc.config.gpu.issue_cycles)
        self._extra_timer_jitter = extra_timer_jitter
        self.timer: typing.Optional["SlmTimer"] = None

    @property
    def slm(self) -> "SharedLocalMemory":
        """The SLM bank of the subslice this work-group landed on."""
        return self.soc.slm[self.subslice]

    @property
    def wavefronts(self) -> int:
        return (self.threads + self.wavefront_size - 1) // self.wavefront_size

    # ------------------------------------------------------------------
    # Memory primitives

    def read(self, paddr: int) -> typing.Generator[object, object, int]:
        """One load by a single thread; returns the latency in fs."""
        latency = yield from self.soc.gpu_access(paddr)
        return latency

    def _issue_after(self, paddr: int, delay_fs: int) -> typing.Generator:
        """One lane of a staged-path batch: wait ``delay_fs``, then load."""
        if delay_fs:
            yield delay_fs
        latency = yield from self.soc.gpu_access(paddr)
        return latency

    def parallel_read(
        self, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, typing.List[int]]:
        """Load every address, ``mem_parallelism`` at a time.

        Returns per-access latencies (fs).  Requests within one batch issue
        ``issue_cycles`` apart and overlap in the memory system; batches
        run back to back, modeling SIMT lock-step over the wavefronts.
        On a fast-path machine, an all-L3-hit batch commits analytically
        with one timed wait instead of a fan-out of child processes.
        """
        latencies: typing.List[int] = []
        engine = self.soc.engine
        fast = self.soc._fastpath
        # Each fast-path lane is one resolver frame, issue delay included.
        issue = self.soc._gpu_access_fast if fast else self._issue_after
        issue_fs = self._issue_fs
        for start in range(0, len(paddrs), self.mem_parallelism):
            batch = paddrs[start : start + self.mem_parallelism]
            if fast:
                folded = yield from self._parallel_read_fast(batch)
                if folded is not None:
                    latencies.extend(folded)
                    continue
            children = [
                Process(engine, issue(paddr, i * issue_fs))
                for i, paddr in enumerate(batch)
            ]
            results = yield AllOf(engine, children)
            latencies.extend(typing.cast(typing.List[int], results))
        return latencies

    def _parallel_read_fast(
        self, batch: typing.Sequence[int]
    ) -> typing.Generator[object, object, typing.Optional[typing.List[int]]]:
        """Analytic fast path for an all-L3-hit parallel batch.

        L3 hits never evict, so peeking membership of the whole batch is
        sound; commits then happen in issue order and every completion
        (hence every trace/metrics record) lands strictly ascending in the
        issue index.  Returns ``None`` — without yielding — when any line
        misses or a queued event falls inside the batch's span.
        """
        soc = self.soc
        engine = soc.engine
        l3 = soc.gpu_l3.array
        hit_fs = soc._l3_hit_fs
        issue_fs = self._issue_fs
        n = len(batch)
        t0 = engine._now
        t_end = t0 + (n - 1) * issue_fs + hit_fs
        queue = engine._queue
        if queue and queue[0][0] <= t_end:
            return None
        for paddr in batch:
            if not l3.contains(paddr):
                return None
        trace = soc._trace_cache
        hist = soc._lat_gpu
        for k, paddr in enumerate(batch):
            l3.lookup(paddr)
            if trace is not None:
                trace.emit("cache.access", t0 + k * issue_fs + hit_fs, "gpu",
                           {"level": "l3", "hit": True, "paddr": paddr})
            if hist is not None:
                hist.add(hit_fs / 1e6)
        yield t_end - t0
        return [hit_fs] * n

    def wait_cycles(self, cycles: float) -> typing.Generator:
        """Busy-wait for a number of GPU cycles."""
        yield self.soc.gpu_cycles_fs(cycles)

    def barrier(self) -> typing.Generator:
        """Work-group barrier; a few cycles of synchronization cost."""
        yield self.soc.gpu_cycles_fs(4)

    # ------------------------------------------------------------------
    # Custom timer (§III-B)

    def start_timer(
        self, counter_threads: typing.Optional[int] = None
    ) -> "SlmTimer":
        """Dedicate the threads above the first wavefront to the counter.

        With the default 256-thread work-group this leaves 224 counter
        threads, matching the paper.  Threads 0..wavefront-1 remain for
        probing (branch divergence serializes the two groups at the
        wavefront boundary, hence the split point).
        """
        from repro.gpu.timer import SlmTimer

        if counter_threads is None:
            counter_threads = self.threads - self.wavefront_size
        if counter_threads <= 0:
            raise GpuModelError(
                "no threads left for the counter: launch more than one wavefront"
            )
        if counter_threads > self.threads - self.wavefront_size:
            raise GpuModelError(
                f"only {self.threads - self.wavefront_size} threads are beyond "
                f"the first wavefront; cannot run {counter_threads} counters"
            )
        self.timer = SlmTimer(
            self.soc,
            counter_threads,
            rng=self.soc.rng.stream(f"slm-timer-wg{self.workgroup_id}"),
            extra_jitter_sigma=self._extra_timer_jitter,
        )
        return self.timer

    def read_timer(self) -> typing.Generator[object, object, int]:
        """Read the running counter (``atomic_add(counter, 0)``)."""
        if self.timer is None:
            raise GpuModelError("start_timer() before read_timer()")
        value = yield from self.timer.read()
        return value

    def timed_read(self, paddr: int) -> typing.Generator[object, object, int]:
        """Measure one load with the SLM timer; returns the tick delta."""
        start = yield from self.read_timer()
        yield from self.read(paddr)
        end = yield from self.read_timer()
        return end - start

    def timed_parallel_read(
        self, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, int]:
        """Measure a parallel batch with the SLM timer (tick delta)."""
        start = yield from self.read_timer()
        yield from self.parallel_read(paddrs)
        end = yield from self.read_timer()
        return end - start
