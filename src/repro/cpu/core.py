"""A user-level CPU program pinned to one core.

Wraps the SoC access paths with the measurement verbs the Spy/Trojan use:
``rdtsc``-style cycle timestamps (the CPU, unlike the GPU, has a usable
user-level timer), timed loads, serial set probes, batched (MLP) fills,
and ``clflush``.  Timestamp reads carry a fixed serialization overhead and
a small jitter, modeling out-of-order effects around ``rdtscp``.
"""

from __future__ import annotations

import typing

from repro.obs.recorder import recorder as _recorder
from repro.sim import AllOf
from repro.sim.process import Process
from repro.soc.mmu import AddressSpace

if typing.TYPE_CHECKING:
    from repro.soc.machine import SoC

#: Cost of one serialized timestamp read, in CPU cycles (rdtscp + lfence).
RDTSC_CYCLES = 24
#: Half-width of the uniform out-of-order jitter on a measurement, cycles.
RDTSC_JITTER_CYCLES = 2
#: Outstanding misses one core sustains (line fill buffers).
CPU_MEM_PARALLELISM = 8


class CpuProgram:
    """An unprivileged process executing on a fixed core."""

    def __init__(self, soc: "SoC", core: int, space: typing.Optional[AddressSpace] = None,
                 name: str = "cpu-prog") -> None:
        self.soc = soc
        self.core = core
        self.name = name
        self.space = space if space is not None else soc.new_process(name)
        self._rng = soc.rng.stream(f"cpu-timer-{name}-{core}")
        # Resolved once; `None` keeps the measurement verbs' off path to
        # a single check per timed operation.
        self._trace = _recorder.sink_for("cpu.probe")

    # ------------------------------------------------------------------
    # Plain accesses

    def read(self, paddr: int) -> typing.Generator[object, object, int]:
        """One load; returns its latency in fs."""
        latency = yield from self.soc.cpu_access(self.core, paddr)
        return latency

    def write(self, paddr: int) -> typing.Generator[object, object, int]:
        """One write-allocate store; returns its latency in fs."""
        latency = yield from self.soc.cpu_access(self.core, paddr)
        return latency

    def clflush(self, paddr: int) -> typing.Generator[object, object, int]:
        """Flush a line from the CPU-coherent domain."""
        latency = yield from self.soc.clflush(self.core, paddr)
        return latency

    def read_series(
        self, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, typing.List[int]]:
        """Serial loads (the CPU probes a set one way at a time, §III-E).

        Routed through :meth:`SoC.cpu_access_burst`, which folds runs of
        private-cache hits into one timed wait per run.
        """
        latencies = yield from self.soc.cpu_access_burst(self.core, paddrs)
        return latencies

    def _issue_after(self, paddr: int, delay_fs: int) -> typing.Generator:
        """One lane of a staged-path batch: wait ``delay_fs``, then load."""
        if delay_fs:
            yield delay_fs
        latency = yield from self.soc.cpu_access(self.core, paddr)
        return latency

    def read_batch(
        self,
        paddrs: typing.Sequence[int],
        parallelism: int = CPU_MEM_PARALLELISM,
    ) -> typing.Generator[object, object, typing.List[int]]:
        """Independent loads with memory-level parallelism (for priming).

        Out-of-order cores keep several line fills in flight when the
        addresses carry no data dependency; eviction-set priming is the
        textbook case.  Timed *probes* use :meth:`read_series` instead —
        the measurement depends on the serial pointer-chase latency.
        """
        soc = self.soc
        engine = soc.engine
        issue_fs = soc.cpu_cycles_fs(2)
        step = max(1, parallelism)
        fast = soc._fastpath
        latencies: typing.List[int] = []
        for start in range(0, len(paddrs), step):
            batch = paddrs[start : start + step]
            if fast:
                folded = yield from self._read_batch_fast(batch, issue_fs)
                if folded is not None:
                    latencies.extend(folded)
                    continue
            # Each fast-path lane is one resolver frame, issue delay included.
            children = [
                Process(
                    engine,
                    soc._cpu_access_fast(self.core, paddr, i * issue_fs)
                    if fast
                    else self._issue_after(paddr, i * issue_fs),
                )
                for i, paddr in enumerate(batch)
            ]
            results = yield AllOf(engine, children)
            latencies.extend(typing.cast(typing.List[int], results))
        return latencies

    def _read_batch_fast(
        self, batch: typing.Sequence[int], issue_fs: int
    ) -> typing.Generator[object, object, typing.Optional[typing.List[int]]]:
        """Analytic fast path for an all-private-hit MLP batch.

        When every line of the batch sits in the private caches and no
        queued event (or preemption window) falls inside the batch's time
        span, the fan-out of child processes is pure bookkeeping: commit
        the cache state changes in issue order, emit the trace/metrics
        records in *completion* order (Welford accumulation is
        order-sensitive) and sleep once until the last completion.
        Returns ``None`` — without yielding — when the batch must fall
        back to the event-mode fan-out.
        """
        soc = self.soc
        engine = soc.engine
        core = self.core
        t0 = engine._now
        if soc._core_stall_until[core] > t0:
            return None
        l1, l2 = soc._core_arrays[core]
        d1 = soc._l1_hit_fs
        d2 = soc._l2_hit_fs
        n = len(batch)
        t_bound = t0 + (n - 1) * issue_fs + (d1 if d1 > d2 else d2)
        queue = engine._queue
        if queue and queue[0][0] <= t_bound:
            return None
        # L1 ⊆ L2 (back-invalidation keeps inclusivity), so membership in
        # L2 is the stable all-hit predicate: hits never evict L2 lines.
        for paddr in batch:
            if not l2.contains(paddr):
                return None
        trace = soc._trace_cache
        hist = soc._lat_cpu[core] if soc._lat_cpu is not None else None
        track = soc._core_tracks[core]
        pending: typing.List[typing.Tuple[int, int, str, int, int]] = []
        latencies: typing.List[int] = []
        t_end = t0
        for k, paddr in enumerate(batch):
            if l1.lookup(paddr):
                d = d1
                level = "l1"
            else:
                l1.fill(paddr)  # install; the L1 victim drops cleanly
                l2.lookup(paddr)  # a hit: the whole batch sits in L2
                d = d2
                level = "l2"
            done = t0 + k * issue_fs + d
            if done > t_end:
                t_end = done
            latencies.append(d)
            pending.append((done, k, level, paddr, d))
        # Children with a 2-cycle issue stagger can complete out of order
        # (L1 vs L2 hits); ties resolve by issue index, matching the
        # event queue's sequence-number tie-break.
        pending.sort()
        for done, _k, level, paddr, d in pending:
            if trace is not None:
                trace.emit("cache.access", done, track,
                           {"level": level, "hit": True, "paddr": paddr})
            if hist is not None:
                hist.add(d / 1e6)
        yield t_end - t0
        return latencies

    # ------------------------------------------------------------------
    # Timing

    def rdtsc(self) -> typing.Generator[object, object, int]:
        """Serialized timestamp; returns the time in CPU cycles."""
        yield from self.soc.stall_if_preempted(self.core)
        yield self.soc.cpu_cycles_fs(RDTSC_CYCLES)
        cycles = self.soc.now_fs / self.soc.config.cpu_clock.cycle_fs
        jitter = self._rng.integers(-RDTSC_JITTER_CYCLES, RDTSC_JITTER_CYCLES + 1)
        return int(cycles) + int(jitter)

    def timed_read(self, paddr: int) -> typing.Generator[object, object, int]:
        """Measure one load; returns measured CPU cycles (incl. overhead)."""
        start = yield from self.rdtsc()
        start_fs = self.soc.engine.now
        yield from self.read(paddr)
        end = yield from self.rdtsc()
        if self._trace is not None:
            self._trace.emit(
                "cpu.probe",
                start_fs,
                f"cpu.core{self.core}",
                {
                    "program": self.name,
                    "n_lines": 1,
                    "cycles": end - start,
                    "dur_fs": self.soc.engine.now - start_fs,
                },
            )
        return end - start

    def timed_probe(
        self, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, int]:
        """Measure a serial probe over a whole eviction set.

        Returns total measured cycles for the loop — the quantity the Spy
        thresholds to distinguish a primed set from an untouched one.
        """
        start = yield from self.rdtsc()
        start_fs = self.soc.engine.now
        yield from self.read_series(paddrs)
        end = yield from self.rdtsc()
        if self._trace is not None:
            self._trace.emit(
                "cpu.probe",
                start_fs,
                f"cpu.core{self.core}",
                {
                    "program": self.name,
                    "n_lines": len(paddrs),
                    "cycles": end - start,
                    "dur_fs": self.soc.engine.now - start_fs,
                },
            )
        return end - start

    def wait_cycles(self, cycles: float) -> typing.Generator:
        """Spin for a number of CPU cycles."""
        yield self.soc.cpu_cycles_fs(cycles)

    # ------------------------------------------------------------------
    # Allocation convenience

    def alloc_lines(self, n_lines: int, huge: bool = False) -> typing.List[int]:
        """Allocate a buffer of ``n_lines`` cache lines; returns paddrs."""
        line = self.soc.config.llc.line_bytes
        if huge:
            buffer = self.space.mmap_huge(n_lines * line)
        else:
            buffer = self.space.mmap(n_lines * line)
        return buffer.line_paddrs(line)
