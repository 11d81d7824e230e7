"""SoC wiring: the timed access paths through the memory system.

This module composes the passive models (caches, ring, DRAM) into the two
asymmetric pathways the paper reverse engineers:

* **CPU path**: L1 → L2 → (ring) → LLC → (DRAM).  L1/L2 are inclusive of
  the LLC; LLC evictions back-invalidate every core's private caches.
* **GPU path**: L3 → (ring) → LLC → (DRAM).  The L3 is *non-inclusive*:
  neither LLC evictions nor CPU ``clflush`` reach into it.

Both paths share the LLC arrays and the ring resource — the two contention
domains the covert channels are built on.  Access paths are generators
composable with ``yield from``; each returns the latency it took, in
femtoseconds, which is what the attacking agents' timers measure.
"""

from __future__ import annotations

import typing

from repro.config import SoCConfig, kaby_lake
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import recorder as _recorder
from repro.sim import FS_PER_S, RngStreams
from repro.sim import fastpath as _fastpath
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.soc.cpu_cache import CpuCoreCaches
from repro.soc.dram import Dram
from repro.soc.gpu_l3 import GpuL3
from repro.soc.llc import SlicedLlc
from repro.soc.mmu import AddressSpace, Mmu
from repro.soc.ring import Ring
from repro.soc.slm import SharedLocalMemory

AccessGen = typing.Generator[object, object, int]


def _flatten(
    node: typing.Mapping[str, object], prefix: str
) -> typing.Iterator[typing.Tuple[str, object]]:
    """Yield ``(dotted_name, leaf)`` pairs of a component stats dict."""
    for key, value in node.items():
        dotted = f"{prefix}.{key}"
        if isinstance(value, dict):
            yield from _flatten(value, dotted)
        else:
            yield dotted, value


class SoC:
    """A simulated integrated CPU-GPU system."""

    def __init__(self, config: typing.Optional[SoCConfig] = None) -> None:
        self.config = (config or kaby_lake()).validate()
        self.engine = Engine()
        self.rng = RngStreams(self.config.seed)
        self.mmu = Mmu(self.config.mmu, self.rng.stream("mmu"))
        self.dram = Dram(self.config.dram, self.rng.stream("dram"))
        self.ring = Ring(self.engine, self.config.ring, self.config.cpu_clock)
        self.llc = SlicedLlc(self.config.llc)
        self.cpu_caches = [
            CpuCoreCaches(self.config.cpu_cache, core)
            for core in range(self.config.cpu_cores)
        ]
        self.gpu_l3 = GpuL3(self.config.gpu_l3)
        self.slm = [
            SharedLocalMemory(self.config.slm, subslice)
            for subslice in range(self.config.gpu.total_subslices)
        ]
        # Way partition applied to LLC fills, keyed by "cpu"/"gpu".
        # None means unrestricted (no mitigation active).
        self.llc_partition: typing.Optional[typing.Dict[str, typing.Tuple[int, ...]]] = None
        self._noise_process: typing.Optional[Process] = None
        self._noise_lines: typing.List[int] = []
        self._line_slots = self.ring.slots_for_line(self.config.llc.line_bytes)
        # Per-core OS preemption windows (timer interrupts, §V error floor).
        self._core_stall_until = [0] * self.config.cpu_cores
        self._tick_process: typing.Optional[Process] = None
        # ------------------------------------------------------------------
        # Fast path (see repro.sim.fastpath).  Sampled once so this machine
        # is consistently fast or consistently slow; the precomputed fixed
        # latencies below feed the coalesced access paths and bursts.
        self._fastpath = _fastpath.enabled()
        cache_cfg = self.config.cpu_cache
        self._l1_hit_fs = self.cpu_cycles_fs(cache_cfg.l1_hit_cycles)
        self._l2_hit_fs = self.cpu_cycles_fs(cache_cfg.l2_hit_cycles)
        self._l3_hit_fs = self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles)
        llc_lookup_fs = self.cpu_cycles_fs(self.config.llc.lookup_cycles)
        gpu_traverse_fs = (
            self.ring.traverse_fs * self.config.ring.gpu_traverse_multiplier
        )
        self._cpu_pre_fs = self._l2_hit_fs + self.ring.traverse_fs
        self._cpu_tail_base_fs = llc_lookup_fs + self.ring.traverse_fs
        self._gpu_pre_fs = self._l3_hit_fs + gpu_traverse_fs
        self._gpu_tail_base_fs = llc_lookup_fs + gpu_traverse_fs
        self._core_tracks = [
            f"cpu.core{core}" for core in range(self.config.cpu_cores)
        ]
        # The arrays the resolvers touch: each core's (L1, L2), every
        # private array (LLC back-invalidation) and the GPU L3.
        self._core_arrays = [(caches.l1, caches.l2) for caches in self.cpu_caches]
        self._private_arrays = [
            array for pair in self._core_arrays for array in pair
        ]
        self._l3 = self.gpu_l3.array
        # ------------------------------------------------------------------
        # Fault injection (see repro.faults).  Every SLM timer registers
        # itself here so the clock-drift injector can reach it; the probe
        # hook lets the handshake-fault injector classify light polls.
        # Both stay None/empty on a healthy machine.
        self.slm_timers: typing.List[object] = []
        self.probe_fault_hook: typing.Optional[
            typing.Callable[[], typing.Optional[str]]
        ] = None
        self._fault_suite: typing.Optional[object] = None
        # ------------------------------------------------------------------
        # Observability.  Sinks resolve once, here; when tracing is off
        # every emit site below is a single `is None` check.  The latency
        # histograms are likewise armed only when observability is on, so
        # the quiet path records nothing.
        self.metrics = MetricsRegistry(
            reservoir=self.config.obs.histogram_reservoir
        )
        self._trace_cache = _recorder.sink_for("cache.access")
        self._trace_evict = _recorder.sink_for("cache.evict")
        self._trace_dram = _recorder.sink_for("dram.access")
        self.obs_enabled = self.config.obs.enabled or _recorder.enabled
        if self.obs_enabled:
            self._lat_cpu: typing.Optional[list] = [
                self.metrics.histogram(f"cpu.core{core}.access_latency_ns")
                for core in range(self.config.cpu_cores)
            ]
            self._lat_gpu = self.metrics.histogram("gpu.access_latency_ns")
            self._lat_dram = self.metrics.histogram("dram.latency_ns")
        else:
            self._lat_cpu = None
            self._lat_gpu = None
            self._lat_dram = None

    # ------------------------------------------------------------------
    # Setup helpers

    def new_process(self, name: str) -> AddressSpace:
        """Create a fresh user process address space."""
        return AddressSpace(self.mmu, name=name)

    def set_llc_partition(
        self,
        cpu_ways: typing.Sequence[int],
        gpu_ways: typing.Sequence[int],
    ) -> None:
        """Activate the §VI way-partitioning mitigation."""
        overlap = set(cpu_ways) & set(gpu_ways)
        if overlap:
            raise SimulationError(f"partitions overlap on ways {sorted(overlap)}")
        self.llc_partition = {"cpu": tuple(cpu_ways), "gpu": tuple(gpu_ways)}

    def clear_llc_partition(self) -> None:
        """Deactivate LLC way partitioning."""
        self.llc_partition = None

    def _fill_ways(self, domain: str) -> typing.Optional[typing.Tuple[int, ...]]:
        if self.llc_partition is None:
            return None
        return self.llc_partition[domain]

    # ------------------------------------------------------------------
    # Clock helpers

    def cpu_cycles_fs(self, cycles: float) -> int:
        return self.config.cpu_clock.cycles_fs(cycles)

    def gpu_cycles_fs(self, cycles: float) -> int:
        return self.config.gpu_clock.cycles_fs(cycles)

    @property
    def now_fs(self) -> int:
        return self.engine.now

    # ------------------------------------------------------------------
    # CPU access path

    def _llc_evict_cpu_side(self, evicted: typing.Optional[int]) -> None:
        """Inclusive back-invalidation: LLC eviction purges CPU caches.

        Deliberately does *not* touch the GPU L3 (non-inclusive, §III-D).
        """
        if evicted is None:
            return
        for caches in self.cpu_caches:
            caches.invalidate(evicted)

    def stall_if_preempted(self, core: int) -> AccessGen:
        """Hold the program while the OS has preempted its core."""
        start = self.engine.now
        stall_until = self._core_stall_until[core]
        if stall_until > start:
            yield stall_until - start
        return self.engine.now - start

    def preempt_core(self, core: int, duration_fs: int) -> None:
        """Descheduled window: stall ``core`` for ``duration_fs`` from now.

        Used by the OS-tick model and the fault-injection preemption
        injector; overlapping windows extend rather than truncate.
        """
        self._core_stall_until[core] = max(
            self._core_stall_until[core], self.engine.now + int(duration_fs)
        )

    def _record_cpu_latency(self, core: int, latency_fs: int) -> None:
        if self._lat_cpu is not None:
            self._lat_cpu[core].add(latency_fs / 1e6)

    def cpu_access(self, core: int, paddr: int) -> AccessGen:
        """One CPU load (or write-allocate store); returns latency in fs."""
        if self._fastpath:
            return self._cpu_access_fast(core, paddr)
        return self._cpu_access_slow(core, paddr)

    def _cpu_access_slow(self, core: int, paddr: int) -> AccessGen:
        """Reference path: one yield per pipeline stage."""
        start = self.engine.now
        yield from self.stall_if_preempted(core)
        caches = self.cpu_caches[core]
        cache_cfg = self.config.cpu_cache
        trace = self._trace_cache
        l1 = caches.l1.access(paddr)
        if l1.hit:
            yield self.cpu_cycles_fs(cache_cfg.l1_hit_cycles)
            if trace is not None:
                trace.emit("cache.access", self.engine.now, f"cpu.core{core}",
                           {"level": "l1", "hit": True, "paddr": paddr})
            latency = self.engine.now - start
            self._record_cpu_latency(core, latency)
            return latency
        l2 = caches.l2.access(paddr)
        if l2.evicted is not None:
            caches.l1.invalidate(l2.evicted)
        if l2.hit:
            yield self.cpu_cycles_fs(cache_cfg.l2_hit_cycles)
            if trace is not None:
                trace.emit("cache.access", self.engine.now, f"cpu.core{core}",
                           {"level": "l2", "hit": True, "paddr": paddr})
            latency = self.engine.now - start
            self._record_cpu_latency(core, latency)
            return latency
        # Private caches missed: cross the ring to the LLC slice.
        yield self.cpu_cycles_fs(cache_cfg.l2_hit_cycles) + self.ring.traverse_fs
        yield from self.ring.transfer(self._line_slots, "cpu")
        llc = self.llc.access(paddr, allowed_ways=self._fill_ways("cpu"))
        self._llc_evict_cpu_side(llc.evicted)
        if trace is not None:
            location = self.llc.location_of(paddr)
            trace.emit(
                "cache.access", self.engine.now, f"cpu.core{core}",
                {"level": "llc", "hit": llc.hit, "paddr": paddr,
                 "slice": location.slice_index, "set": location.set_index},
            )
        if llc.evicted is not None and self._trace_evict is not None:
            self._trace_evict.emit(
                "cache.evict", self.engine.now, "llc",
                {"line": llc.evicted, "by": f"cpu.core{core}",
                 "set": llc.set_index},
            )
        tail_fs = (
            self.cpu_cycles_fs(self.config.llc.lookup_cycles) + self.ring.traverse_fs
        )
        if not llc.hit:
            dram_fs = self.dram.latency_fs()
            if self._trace_dram is not None:
                self._trace_dram.emit(
                    "dram.access", self.engine.now, "dram",
                    {"requester": f"cpu.core{core}", "latency_ns": dram_fs / 1e6},
                )
            if self._lat_dram is not None:
                self._lat_dram.add(dram_fs / 1e6)
            tail_fs += dram_fs
        yield tail_fs
        latency = self.engine.now - start
        self._record_cpu_latency(core, latency)
        return latency

    def _cpu_access_fast(self, core: int, paddr: int, delay_fs: int = 0) -> AccessGen:
        """The CPU resolver: one frame per load, issued ``delay_fs`` from now.

        Observationally equivalent to :meth:`_cpu_access_slow` after a
        ``delay_fs`` wait: every cache/ring/DRAM state change and every
        trace/metrics emit happens with the same logical timestamp and in
        the same cross-agent order.  A private hit is one yield; a miss
        folds the pre-ring segment, the ring hold and the LLC/DRAM tail
        into as few yields as the queue head allows (see DESIGN,
        "Fast-path contract").  The latency excludes the issue delay.
        """
        if delay_fs:
            yield delay_fs
        engine = self.engine
        start = engine._now
        stall_until = self._core_stall_until[core]
        if stall_until > start:
            yield stall_until - start
        l1, l2 = self._core_arrays[core]
        level = "l1"
        if l1.lookup(paddr):
            yield self._l1_hit_fs
        else:
            l1.fill(paddr)
            level = "l2"
            if l2.lookup(paddr):
                yield self._l2_hit_fs
            else:
                evicted = l2.fill(paddr)
                if evicted is not None:
                    l1.invalidate(evicted)  # keep L1 within L2
                level = None
                # Miss path, folded as in the GPU resolver.
                ring = self.ring
                queue = engine._queue
                t0 = engine._now
                t1 = t0 + self._cpu_pre_fs
                if ring.tdm is not None or (queue and queue[0][0] <= t1):
                    yield self._cpu_pre_fs
                    if ring.tdm is not None:
                        tdm_wait = ring.tdm.wait_fs("cpu", engine._now)
                        if tdm_wait:
                            yield tdm_wait
                    t0 = t1 = engine._now
                waited, hold = ring.reserve(self._line_slots, "cpu", t1)
                t3 = t1 + waited + hold
                track = self._core_tracks[core]
                if self.dram.fault_hook is None and (not queue or queue[0][0] > t3):
                    yield t3 - t0 + self._llc_fill_fast(
                        "cpu", track, paddr, t3, self._cpu_tail_base_fs
                    )
                else:
                    yield t3 - t0
                    yield self._llc_fill_fast(
                        "cpu", track, paddr, engine._now, self._cpu_tail_base_fs
                    )
        if level is not None and self._trace_cache is not None:
            self._trace_cache.emit("cache.access", engine._now, self._core_tracks[core],
                                   {"level": level, "hit": True, "paddr": paddr})
        latency = engine._now - start
        if self._lat_cpu is not None:
            self._lat_cpu[core].add(latency / 1e6)
        return latency

    def _llc_fill_fast(
        self, domain: str, track: str, paddr: int, at_fs: int, tail_base_fs: int
    ) -> int:
        """The resolvers' LLC stage, stamped with logical ``at_fs``.

        Looks the line up in its slice, fills it on a miss (inside the
        domain's way partition, if one is active), back-invalidates an
        evicted line from every core's private caches (the LLC is
        inclusive of L1/L2 but not of the GPU L3, §III-D) and draws the
        DRAM latency of a miss.  Returns the tail delay beyond ``at_fs``.
        State mutations and emits are those of the staged path's post-ring
        segment; only the timestamp is supplied instead of read from the
        engine.
        """
        array = self.llc.slice_for(paddr)
        hit = array.lookup(paddr)
        evicted = None
        if not hit:
            partition = self.llc_partition
            evicted = array.fill(paddr, None if partition is None else partition[domain])
            if evicted is not None:
                for private in self._private_arrays:
                    private.invalidate(evicted)
        trace = self._trace_cache
        if trace is not None or (evicted is not None and self._trace_evict is not None):
            location = self.llc.location_of(paddr)
            if trace is not None:
                trace.emit(
                    "cache.access", at_fs, track,
                    {"level": "llc", "hit": hit, "paddr": paddr,
                     "slice": location.slice_index, "set": location.set_index},
                )
            if evicted is not None and self._trace_evict is not None:
                self._trace_evict.emit(
                    "cache.evict", at_fs, "llc",
                    {"line": evicted, "by": track, "set": location.set_index},
                )
        if hit:
            return tail_base_fs
        dram_fs = self.dram.latency_fs()
        if self._trace_dram is not None:
            self._trace_dram.emit(
                "dram.access", at_fs, "dram",
                {"requester": track, "latency_ns": dram_fs / 1e6},
            )
        if self._lat_dram is not None:
            self._lat_dram.add(dram_fs / 1e6)
        return tail_base_fs + dram_fs

    def cpu_access_burst(
        self, core: int, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, typing.List[int]]:
        """Serial loads; runs of private-cache hits fold into one yield.

        Returns per-access latencies, exactly as issuing each load through
        :meth:`cpu_access` would.  Private hits touch no shared state, so
        batching a run of them is invisible to every other agent — and the
        fold only happens while no other event (and no preemption-window
        boundary) falls inside the run.  Misses, stalls and near-term
        foreign events drop to the per-access path for one access.
        """
        if not self._fastpath:
            latencies = []
            for paddr in paddrs:
                latency = yield from self._cpu_access_slow(core, paddr)
                latencies.append(latency)
            return latencies
        engine = self.engine
        queue = engine._queue
        l1, l2 = self._core_arrays[core]
        d1 = self._l1_hit_fs
        d2 = self._l2_hit_fs
        trace = self._trace_cache
        hist = self._lat_cpu[core] if self._lat_cpu is not None else None
        track = self._core_tracks[core]
        stalls = self._core_stall_until
        latencies: typing.List[int] = []
        n = len(paddrs)
        i = 0
        while i < n:
            acc = 0
            t = engine._now
            head = queue[0][0] if queue else None
            while i < n:
                ti = t + acc
                if stalls[core] > ti:
                    break
                if head is not None and head <= ti + d2:
                    break
                paddr = paddrs[i]
                if l1.lookup(paddr):
                    acc += d1
                    if trace is not None:
                        trace.emit("cache.access", ti + d1, track,
                                   {"level": "l1", "hit": True, "paddr": paddr})
                    latencies.append(d1)
                    if hist is not None:
                        hist.add(d1 / 1e6)
                    i += 1
                    continue
                if l2.lookup(paddr):
                    l1.fill(paddr)  # install (same as the scalar path)
                    acc += d2
                    if trace is not None:
                        trace.emit("cache.access", ti + d2, track,
                                   {"level": "l2", "hit": True, "paddr": paddr})
                    latencies.append(d2)
                    if hist is not None:
                        hist.add(d2 / 1e6)
                    i += 1
                    continue
                break
            if acc:
                yield acc
            if i < n:
                latency = yield from self._cpu_access_fast(core, paddrs[i])
                latencies.append(latency)
                i += 1
        return latencies

    def clflush(self, core: int, paddr: int) -> AccessGen:
        """Flush one line from the CPU-coherent domain (L1, L2, LLC).

        The GPU L3 keeps its copy — exactly the behaviour the §III-D
        inclusiveness experiment detects.  Returns the latency in fs.
        """
        start = self.engine.now
        for caches in self.cpu_caches:
            caches.invalidate(paddr)
        was_in_llc = self.llc.invalidate(paddr)
        cost_cycles = self.config.cpu_cache.l2_hit_cycles
        if was_in_llc:
            cost_cycles += self.config.llc.lookup_cycles
        yield self.cpu_cycles_fs(cost_cycles)
        return self.engine.now - start

    # ------------------------------------------------------------------
    # GPU access path

    def gpu_access(self, paddr: int) -> AccessGen:
        """One GPU (OpenCL) load through L3 → ring → LLC → DRAM."""
        if self._fastpath:
            return self._gpu_access_fast(paddr)
        return self._gpu_access_slow(paddr)

    def _gpu_access_slow(self, paddr: int) -> AccessGen:
        """Reference path: one yield per pipeline stage."""
        start = self.engine.now
        trace = self._trace_cache
        l3 = self.gpu_l3.access(paddr)
        if l3.hit:
            yield self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles)
            if trace is not None:
                trace.emit("cache.access", self.engine.now, "gpu",
                           {"level": "l3", "hit": True, "paddr": paddr})
            latency = self.engine.now - start
            if self._lat_gpu is not None:
                self._lat_gpu.add(latency / 1e6)
            return latency
        # L3 miss detection, then cross the ring.  The L3 fill already
        # happened in state (non-inclusive victim silently dropped).
        gpu_traverse_fs = self.ring.traverse_fs * self.config.ring.gpu_traverse_multiplier
        yield self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles) + gpu_traverse_fs
        yield from self.ring.transfer(self._line_slots, "gpu")
        llc = self.llc.access(paddr, allowed_ways=self._fill_ways("gpu"))
        self._llc_evict_cpu_side(llc.evicted)
        if trace is not None:
            location = self.llc.location_of(paddr)
            trace.emit(
                "cache.access", self.engine.now, "gpu",
                {"level": "llc", "hit": llc.hit, "paddr": paddr,
                 "slice": location.slice_index, "set": location.set_index},
            )
        if llc.evicted is not None and self._trace_evict is not None:
            self._trace_evict.emit(
                "cache.evict", self.engine.now, "llc",
                {"line": llc.evicted, "by": "gpu", "set": llc.set_index},
            )
        tail_fs = (
            self.cpu_cycles_fs(self.config.llc.lookup_cycles) + gpu_traverse_fs
        )
        if not llc.hit:
            dram_fs = self.dram.latency_fs()
            if self._trace_dram is not None:
                self._trace_dram.emit(
                    "dram.access", self.engine.now, "dram",
                    {"requester": "gpu", "latency_ns": dram_fs / 1e6},
                )
            if self._lat_dram is not None:
                self._lat_dram.add(dram_fs / 1e6)
            tail_fs += dram_fs
        yield tail_fs
        latency = self.engine.now - start
        if self._lat_gpu is not None:
            self._lat_gpu.add(latency / 1e6)
        return latency

    def _gpu_access_fast(self, paddr: int, delay_fs: int = 0) -> AccessGen:
        """The GPU resolver: one frame per load, issued ``delay_fs`` from now.

        The GPU sibling of :meth:`_cpu_access_fast`: an L3 hit is one
        yield; a miss fills the L3 at once (the non-inclusive victim drops
        silently) and takes the folded ring → LLC/DRAM path.
        """
        if delay_fs:
            yield delay_fs
        engine = self.engine
        start = engine._now
        l3 = self._l3
        if l3.lookup(paddr):
            yield self._l3_hit_fs
            if self._trace_cache is not None:
                self._trace_cache.emit("cache.access", engine._now, "gpu",
                                       {"level": "l3", "hit": True, "paddr": paddr})
        else:
            l3.fill(paddr)
            # Miss path.  A segment folds into the next yield only when no
            # queued event can run inside it (strictly: an entry at the
            # boundary time carries a lower sequence number and would run
            # first).  The TDM window check and, with a DRAM fault hook
            # armed, the DRAM draw must happen at their true times; those
            # configurations fold less.
            ring = self.ring
            queue = engine._queue
            t0 = start
            t1 = t0 + self._gpu_pre_fs
            if ring.tdm is not None or (queue and queue[0][0] <= t1):
                yield self._gpu_pre_fs
                if ring.tdm is not None:
                    tdm_wait = ring.tdm.wait_fs("gpu", engine._now)
                    if tdm_wait:
                        yield tdm_wait
                t0 = t1 = engine._now
            # The request is booked at its logical time t1.
            waited, hold = ring.reserve(self._line_slots, "gpu", t1)
            t3 = t1 + waited + hold
            if self.dram.fault_hook is None and (not queue or queue[0][0] > t3):
                yield t3 - t0 + self._llc_fill_fast(
                    "gpu", "gpu", paddr, t3, self._gpu_tail_base_fs
                )
            else:
                yield t3 - t0
                yield self._llc_fill_fast(
                    "gpu", "gpu", paddr, engine._now, self._gpu_tail_base_fs
                )
        latency = engine._now - start
        if self._lat_gpu is not None:
            self._lat_gpu.add(latency / 1e6)
        return latency

    def gpu_access_burst(
        self, paddrs: typing.Sequence[int]
    ) -> typing.Generator[object, object, typing.List[int]]:
        """Serial GPU loads; runs of L3 hits fold into one yield.

        The GPU-side sibling of :meth:`cpu_access_burst` (no preemption
        windows on the GPU; L3 hits never evict, §III-D).  Returns
        per-access latencies.
        """
        if not self._fastpath:
            latencies = []
            for paddr in paddrs:
                latency = yield from self._gpu_access_slow(paddr)
                latencies.append(latency)
            return latencies
        engine = self.engine
        queue = engine._queue
        l3 = self._l3
        d3 = self._l3_hit_fs
        trace = self._trace_cache
        hist = self._lat_gpu
        latencies: typing.List[int] = []
        n = len(paddrs)
        i = 0
        while i < n:
            acc = 0
            t = engine._now
            head = queue[0][0] if queue else None
            while i < n:
                ti = t + acc
                if head is not None and head <= ti + d3:
                    break
                paddr = paddrs[i]
                if not l3.lookup(paddr):
                    break
                acc += d3
                if trace is not None:
                    trace.emit("cache.access", ti + d3, "gpu",
                               {"level": "l3", "hit": True, "paddr": paddr})
                latencies.append(d3)
                if hist is not None:
                    hist.add(d3 / 1e6)
                i += 1
            if acc:
                yield acc
            if i < n:
                latency = yield from self._gpu_access_fast(paddrs[i])
                latencies.append(latency)
                i += 1
        return latencies

    # ------------------------------------------------------------------
    # Background noise (§II-B: unconstrained CPU side)

    def start_noise(
        self,
        core: typing.Optional[int] = None,
        rate_per_s: typing.Optional[float] = None,
        footprint_bytes: int = 256 * 1024,
    ) -> None:
        """Launch a background process issuing Poisson LLC traffic."""
        if self._noise_process is not None and self._noise_process.alive:
            raise SimulationError("noise process already running")
        if not self.config.noise.enabled:
            return
        rate = rate_per_s if rate_per_s is not None else (
            self.config.noise.background_llc_rate_per_s
        )
        if rate <= 0:
            return
        if not self._noise_lines:
            space = self.new_process("background-noise")
            buffer = space.mmap(footprint_bytes)
            self._noise_lines = buffer.line_paddrs(self.config.llc.line_bytes)
        noise_core = core if core is not None else self.config.cpu_cores - 1
        self._noise_process = self.engine.process(self._noise_loop(noise_core, rate))

    def _noise_loop(self, core: int, rate_per_s: float) -> typing.Generator:
        rng = self.rng.stream("noise")
        lines = self._noise_lines
        while True:
            gap_fs = max(1, int(rng.exponential(1.0 / rate_per_s) * FS_PER_S))
            yield gap_fs
            paddr = lines[int(rng.integers(0, len(lines)))]
            yield from self.cpu_access(core, paddr)

    def stop_noise(self) -> None:
        """Stop the background noise process, if running."""
        if self._noise_process is not None:
            self._noise_process.interrupt("stop")
            self._noise_process = None

    def start_os_ticks(self) -> None:
        """Launch the periodic timer-interrupt model (per-core stalls)."""
        if not self.config.noise.enabled:
            return
        if self._tick_process is not None and self._tick_process.alive:
            raise SimulationError("OS tick process already running")
        self._tick_process = self.engine.process(self._tick_loop())

    def _tick_loop(self) -> typing.Generator:
        from repro.sim import FS_PER_US

        rng = self.rng.stream("os-ticks")
        noise = self.config.noise
        while True:
            gap_us = noise.os_tick_period_us + rng.uniform(
                -noise.os_tick_jitter_us, noise.os_tick_jitter_us
            )
            yield max(1, int(gap_us * FS_PER_US))
            core = int(rng.integers(0, self.config.cpu_cores))
            duration_fs = int(
                noise.os_tick_duration_us * FS_PER_US * (0.6 + 0.8 * rng.random())
            )
            self.preempt_core(core, duration_fs)

    def stop_os_ticks(self) -> None:
        """Stop the timer-interrupt model."""
        if self._tick_process is not None:
            self._tick_process.interrupt("stop")
            self._tick_process = None

    def start_system_effects(self) -> None:
        """Convenience: background noise + OS ticks (the default testbed).

        When the config arms fault injection, the configured fault suite
        starts alongside the benign system effects.
        """
        if self.config.noise.enabled:
            if self._noise_process is None or not self._noise_process.alive:
                self.start_noise()
            if self._tick_process is None or not self._tick_process.alive:
                self.start_os_ticks()
        if self.config.faults.enabled:
            self.start_faults()

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults)

    def start_faults(self) -> None:
        """Start the fault-injection suite configured in ``config.faults``.

        Idempotent: a suite that is already running is left alone.  A
        no-op when ``config.faults.enabled`` is False.
        """
        if not self.config.faults.enabled:
            return
        if self._fault_suite is not None:
            return
        from repro.faults.injectors import FaultSuite

        suite = FaultSuite.from_config(self)
        suite.start()
        self._fault_suite = suite

    def stop_faults(self) -> None:
        """Stop the fault-injection suite, if one is running."""
        if self._fault_suite is not None:
            self._fault_suite.stop()  # type: ignore[attr-defined]
            self._fault_suite = None

    @property
    def fault_suite(self) -> typing.Optional[object]:
        """The running :class:`~repro.faults.injectors.FaultSuite`, if any."""
        return self._fault_suite

    # ------------------------------------------------------------------
    # Checkpointing (see repro.checkpoint for the envelope + contract)

    def quiesce(self) -> None:
        """Drive the machine to a quiescent point: stop the background
        processes (noise, OS ticks, fault injectors) and drain the event
        queue so no live generator frame remains.

        Interrupted background loops terminate cleanly (an unhandled
        :class:`~repro.sim.process.Interrupt` ends the process); their RNG
        stream positions survive in :attr:`rng`, so restarting them after
        a restore continues the exact cold-start draw sequence.
        """
        self.stop_noise()
        self.stop_os_ticks()
        self.stop_faults()
        self.engine.run()

    def state_dict(self) -> typing.Dict[str, object]:
        """Full machine state at a quiescent point, JSON-able.

        Captures every stateful component plus the machine-local fields a
        restart would otherwise re-derive differently (noise working set,
        preemption windows, the LLC way partition).  Raises
        :class:`~repro.errors.SimulationError` when the machine is not
        quiescent (pending events, busy ring, live background processes).
        """
        if self._noise_process is not None or self._tick_process is not None:
            raise SimulationError(
                "machine is not quiescent: background processes running"
            )
        if self._fault_suite is not None:
            raise SimulationError("machine is not quiescent: fault suite running")
        return {
            "fastpath": self._fastpath,
            "engine": self.engine.state_dict(),
            "rng": self.rng.state_dict(),
            "mmu": self.mmu.state_dict(),
            "dram": self.dram.state_dict(),
            "ring": self.ring.state_dict(),
            "llc": self.llc.state_dict(),
            "cpu_caches": [caches.state_dict() for caches in self.cpu_caches],
            "gpu_l3": self.gpu_l3.state_dict(),
            "slm": [slm.state_dict() for slm in self.slm],
            "metrics": self.metrics.state_dict(),
            "noise_lines": list(self._noise_lines),
            "core_stall_until": list(self._core_stall_until),
            "llc_partition": (
                None
                if self.llc_partition is None
                else {
                    domain: list(ways)
                    for domain, ways in self.llc_partition.items()
                }
            ),
        }

    def load_state(self, state: typing.Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` into this machine.

        The machine must be freshly constructed (or itself quiescent) with
        the same config; the staging mode must match, since fast and
        staged paths execute different event counts.
        """
        if bool(state["fastpath"]) != self._fastpath:
            from repro.errors import CheckpointError

            raise CheckpointError(
                "snapshot was taken with REPRO_FASTPATH="
                f"{'1' if state['fastpath'] else '0'}; this machine runs the "
                f"{'fast' if self._fastpath else 'staged'} path"
            )
        self.engine.load_state(typing.cast(dict, state["engine"]))
        self.rng.load_state(typing.cast(dict, state["rng"]))
        self.mmu.load_state(typing.cast(dict, state["mmu"]))
        self.dram.load_state(typing.cast(dict, state["dram"]))
        self.ring.load_state(typing.cast(dict, state["ring"]))
        self.llc.load_state(typing.cast(dict, state["llc"]))
        for caches, caches_state in zip(
            self.cpu_caches, typing.cast(list, state["cpu_caches"])
        ):
            caches.load_state(caches_state)
        self.gpu_l3.load_state(typing.cast(dict, state["gpu_l3"]))
        for slm, slm_state in zip(self.slm, typing.cast(list, state["slm"])):
            slm.load_state(slm_state)
        self.metrics.load_state(typing.cast(dict, state["metrics"]))
        self._noise_lines = [int(p) for p in typing.cast(list, state["noise_lines"])]
        self._core_stall_until = [
            int(t) for t in typing.cast(list, state["core_stall_until"])
        ]
        partition = typing.cast(
            typing.Optional[dict], state["llc_partition"]
        )
        self.llc_partition = (
            None
            if partition is None
            else {
                str(domain): tuple(int(way) for way in ways)
                for domain, ways in partition.items()
            }
        )

    # ------------------------------------------------------------------
    # Introspection used by tests and the analysis layer

    def metrics_snapshot(self) -> typing.Dict[str, object]:
        """Every component's counters + live histograms as a nested dict.

        Structural counters (cache hits/misses, ring transfers, DRAM
        accesses, engine totals) are maintained by the components
        themselves at all times, so this *pull* never costs anything on
        the simulation path; the latency histograms are populated only
        while observability is armed.
        """
        m = self.metrics
        m.counter("engine.events_executed").set(self.engine.events_executed)
        m.counter("engine.now_fs").set(self.engine.now)
        for dotted, value in _flatten(self.llc.stats_dict(), "llc"):
            m.counter(dotted).set(value)
        for core, caches in enumerate(self.cpu_caches):
            for dotted, value in _flatten(caches.stats_dict(), f"cpu.core{core}"):
                m.counter(dotted).set(value)
        for dotted, value in _flatten(self.gpu_l3.stats_dict(), "gpu_l3"):
            m.counter(dotted).set(value)
        for dotted, value in _flatten(self.ring.stats_dict(), "ring"):
            m.counter(dotted).set(value)
        for dotted, value in _flatten(self.dram.stats_dict(), "dram"):
            m.counter(dotted).set(value)
        return m.as_dict()

    def cpu_latency_profile(self) -> typing.Dict[str, float]:
        """Nominal (uncontended) CPU latencies in nanoseconds, per level."""
        cc = self.config.cpu_cache
        ring_fs = 2 * self.ring.traverse_fs + self.ring.hold_fs(self._line_slots)
        llc_fs = (
            self.cpu_cycles_fs(cc.l2_hit_cycles + self.config.llc.lookup_cycles)
            + ring_fs
        )
        return {
            "l1_ns": self.cpu_cycles_fs(cc.l1_hit_cycles) / 1e6,
            "l2_ns": self.cpu_cycles_fs(cc.l2_hit_cycles) / 1e6,
            "llc_ns": llc_fs / 1e6,
            "dram_ns": llc_fs / 1e6 + self.dram.mean_latency_ns(),
        }

    def gpu_latency_profile(self) -> typing.Dict[str, float]:
        """Nominal (uncontended) GPU latencies in nanoseconds, per level."""
        ring_fs = (
            2 * self.ring.traverse_fs * self.config.ring.gpu_traverse_multiplier
            + self.ring.hold_fs(self._line_slots)
        )
        l3_fs = self.gpu_cycles_fs(self.config.gpu_l3.hit_cycles)
        llc_fs = l3_fs + ring_fs + self.cpu_cycles_fs(self.config.llc.lookup_cycles)
        return {
            "l3_ns": l3_fs / 1e6,
            "llc_ns": llc_fs / 1e6,
            "dram_ns": llc_fs / 1e6 + self.dram.mean_latency_ns(),
        }
