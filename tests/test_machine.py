"""SoC wiring: timed access paths, inclusion maintenance, noise models."""

import pytest

from repro.errors import SimulationError
from repro.sim import FS_PER_NS, FS_PER_US


def cpu_read(soc, core, paddr):
    return soc.engine.run_until_complete(
        soc.engine.process(soc.cpu_access(core, paddr))
    )


def gpu_read(soc, paddr):
    return soc.engine.run_until_complete(soc.engine.process(soc.gpu_access(paddr)))


@pytest.fixture
def lines(soc):
    space = soc.new_process("t")
    return space.mmap(64 * 1024).line_paddrs(64)


def test_cpu_cold_read_costs_dram(soc, lines):
    latency = cpu_read(soc, 0, lines[0])
    assert latency > 60 * FS_PER_NS  # DRAM territory


def test_cpu_l1_hit_after_fill(soc, lines):
    cpu_read(soc, 0, lines[0])
    latency = cpu_read(soc, 0, lines[0])
    assert latency == soc.cpu_cycles_fs(soc.config.cpu_cache.l1_hit_cycles)


def test_cpu_latency_ordering(soc, lines):
    """L1 < L2 < LLC < DRAM, measured end to end."""
    dram = cpu_read(soc, 0, lines[0])
    l1 = cpu_read(soc, 0, lines[0])
    soc.cpu_caches[0].l1.invalidate(lines[0])
    l2 = cpu_read(soc, 0, lines[0])
    soc.cpu_caches[0].invalidate(lines[0])
    llc = cpu_read(soc, 0, lines[0])
    assert l1 < l2 < llc < dram


def test_cpu_fill_populates_all_levels(soc, lines):
    cpu_read(soc, 0, lines[1])
    assert soc.cpu_caches[0].l1.contains(lines[1])
    assert soc.cpu_caches[0].l2.contains(lines[1])
    assert soc.llc.contains(lines[1])


def test_cpu_cores_have_private_caches(soc, lines):
    cpu_read(soc, 0, lines[2])
    assert not soc.cpu_caches[1].contains(lines[2])
    # Second core hits the shared LLC though.
    latency = cpu_read(soc, 1, lines[2])
    assert latency < 40 * FS_PER_NS


def test_gpu_cold_then_l3_hit(soc, lines):
    cold = gpu_read(soc, lines[3])
    warm = gpu_read(soc, lines[3])
    assert warm == soc.gpu_cycles_fs(soc.config.gpu_l3.hit_cycles)
    assert cold > warm


def test_gpu_fill_populates_l3_and_llc(soc, lines):
    gpu_read(soc, lines[4])
    assert soc.gpu_l3.contains(lines[4])
    assert soc.llc.contains(lines[4])


def test_gpu_llc_hit_after_l3_invalidate(soc, lines):
    gpu_read(soc, lines[5])
    soc.gpu_l3.invalidate(lines[5])
    latency = gpu_read(soc, lines[5])
    l3_hit = soc.gpu_cycles_fs(soc.config.gpu_l3.hit_cycles)
    assert latency > l3_hit
    assert latency < 60 * FS_PER_NS  # LLC-hit band, not DRAM


def test_clflush_scrubs_cpu_domain_not_gpu_l3(soc, lines):
    """The §III-D experiment in miniature."""
    paddr = lines[6]
    gpu_read(soc, paddr)
    cpu_read(soc, 0, paddr)
    soc.engine.run_until_complete(soc.engine.process(soc.clflush(0, paddr)))
    assert not soc.llc.contains(paddr)
    assert not soc.cpu_caches[0].contains(paddr)
    assert soc.gpu_l3.contains(paddr)  # non-inclusive: copy survives


def test_llc_eviction_back_invalidates_cpu_caches(soc):
    """Inclusive CPU side: losing the LLC line purges L1/L2 everywhere."""
    space = soc.new_process("strider")
    buffer = space.mmap_huge(1 << 30)
    base = buffer.paddr_of(0)
    target = base
    cpu_read(soc, 0, target)
    location = soc.llc.location_of(target)
    filled = 0
    offset = 1
    while filled < 16:
        candidate = base + offset * (1 << 17)
        offset += 1
        if soc.llc.location_of(candidate) == location:
            cpu_read(soc, 1, candidate)
            filled += 1
    assert not soc.llc.contains(target)
    assert not soc.cpu_caches[0].contains(target)


def test_llc_eviction_leaves_gpu_l3_alone(soc):
    space = soc.new_process("strider2")
    buffer = space.mmap_huge(1 << 30)
    target = buffer.paddr_of(64)
    gpu_read(soc, target)
    location = soc.llc.location_of(target)
    filled = 0
    offset = 1
    while filled < 16:
        candidate = buffer.paddr_of(64 + offset * (1 << 17))
        offset += 1
        if soc.llc.location_of(candidate) == location:
            cpu_read(soc, 1, candidate)
            filled += 1
    assert not soc.llc.contains(target)
    assert soc.gpu_l3.contains(target)  # the §III-D asymmetry


def test_partition_blocks_cross_domain_eviction(soc):
    soc.set_llc_partition(cpu_ways=range(8), gpu_ways=range(8, 16))
    space = soc.new_process("p")
    buffer = space.mmap_huge(1 << 30)
    target = buffer.paddr_of(0)
    cpu_read(soc, 0, target)
    location = soc.llc.location_of(target)
    filled = 0
    offset = 1
    while filled < 24:
        candidate = buffer.paddr_of(offset * (1 << 17))
        offset += 1
        if soc.llc.location_of(candidate) == location:
            gpu_read(soc, candidate)
            filled += 1
    assert soc.llc.contains(target)  # GPU fills can't touch CPU ways


def test_partition_overlap_rejected(soc):
    with pytest.raises(SimulationError):
        soc.set_llc_partition(cpu_ways=[0, 1], gpu_ways=[1, 2])


def test_clear_partition(soc):
    soc.set_llc_partition(cpu_ways=[0], gpu_ways=[1])
    soc.clear_llc_partition()
    assert soc.llc_partition is None


def test_ring_contention_inflates_cpu_latency(soc, lines):
    """Concurrent GPU streaming slows LLC-hit CPU reads (the §IV signal)."""
    paddr = lines[7]
    cpu_read(soc, 0, paddr)

    def measure(n=24):
        total = 0
        for _ in range(n):
            soc.cpu_caches[0].invalidate(paddr)
            total += cpu_read(soc, 0, paddr)
        return total / n

    quiet = measure()

    space = soc.new_process("gpu-traffic")
    traffic = space.mmap_huge(1 << 24)
    # Parallel streams over lines sharing one L3 set: constant L3 misses
    # hammering the ring, like the contention Trojan's lanes.
    streams = []
    for lane in range(16):
        gpu_lines = [
            traffic.paddr_of((k << soc.config.gpu_l3.placement_bits) + lane * 64)
            for k in range(16)
        ]

        def gpu_stream(addresses=tuple(gpu_lines)):
            while True:
                for line in addresses:
                    yield from soc.gpu_access(line)

        streams.append(soc.engine.process(gpu_stream()))
    soc.engine.run(until_fs=soc.engine.now + 3 * FS_PER_US)  # warm up

    contended = measure()
    for stream in streams:
        stream.interrupt("done")
    # A single access sees a modest queueing delay; the channel integrates
    # it over probe groups.  Direction and a real queue are what matter.
    assert contended > quiet * 1.02
    assert soc.ring.mean_wait_fs("cpu") > 0
    assert soc.ring.utilization() > 0.3


def test_os_tick_stalls_core(soc):
    soc.start_os_ticks()
    soc.engine.run(until_fs=soc.engine.now + 2000 * FS_PER_US)
    stalled = [u for u in soc._core_stall_until if u > 0]
    assert stalled  # some core got preempted at least once


def test_stall_delays_cpu_access(soc, lines):
    cpu_read(soc, 0, lines[8])
    soc._core_stall_until[0] = soc.engine.now + 5 * FS_PER_US
    latency = cpu_read(soc, 0, lines[8])
    assert latency >= 5 * FS_PER_US


def test_background_noise_generates_traffic(soc):
    soc.start_noise(rate_per_s=5e6)
    misses_before = soc.llc.misses
    soc.engine.run(until_fs=soc.engine.now + 100 * FS_PER_US)
    assert soc.llc.misses > misses_before
    soc.stop_noise()


def test_double_noise_start_rejected(soc):
    soc.start_noise()
    with pytest.raises(SimulationError):
        soc.start_noise()


def test_start_system_effects_idempotent(soc):
    soc.start_system_effects()
    soc.start_system_effects()  # must not raise


def test_noise_disabled_config(model_config):
    import dataclasses

    from repro.soc.machine import SoC

    quiet = SoC(
        model_config.replace(
            noise=dataclasses.replace(model_config.noise, enabled=False)
        )
    )
    quiet.start_system_effects()
    assert quiet._noise_process is None


def test_latency_profiles_are_ordered(soc):
    cpu = soc.cpu_latency_profile()
    assert cpu["l1_ns"] < cpu["l2_ns"] < cpu["llc_ns"] < cpu["dram_ns"]
    gpu = soc.gpu_latency_profile()
    assert gpu["l3_ns"] < gpu["llc_ns"] < gpu["dram_ns"]


# ----------------------------------------------------------------------
# Event census: the fast path's event count and every structural counter
# of two small fixed-seed transmits, pinned as constants.  Any change to
# the access paths that alters an event, a tie-break or a cache decision
# moves one of these numbers.


def _census(soc):
    snap = soc.metrics_snapshot()
    counters = {"events_executed": soc.engine.events_executed}
    for name in ("llc", "gpu_l3"):
        for key in ("hits", "misses", "evictions"):
            counters[f"{name}.{key}"] = snap[name][key]
    for core, levels in sorted(snap["cpu"].items()):
        for level in ("l1", "l2"):
            for key in ("hits", "misses", "evictions"):
                counters[f"cpu.{core}.{level}.{key}"] = levels[level][key]
    for domain in ("cpu", "gpu"):
        for key in ("transfers", "waited_fs"):
            counters[f"ring.{domain}.{key}"] = snap["ring"][domain][key]
    for key in ("accesses", "row_misses"):
        counters[f"dram.{key}"] = snap["dram"][key]
    return counters


def _transmit_census(monkeypatch, transmit):
    from repro.sim import fastpath
    from repro.soc.machine import SoC

    built = []
    original_init = SoC.__init__

    def init_and_keep(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SoC, "__init__", init_and_keep)
    with fastpath.forced(True):
        transmit()
    assert len(built) == 1
    return _census(built[0])


LLC_CENSUS = {
    "events_executed": 22033,
    "llc.hits": 2620, "llc.misses": 1726, "llc.evictions": 1381,
    "gpu_l3.hits": 4544, "gpu_l3.misses": 2250, "gpu_l3.evictions": 2218,
    "cpu.core0.l1.hits": 14, "cpu.core0.l1.misses": 1942,
    "cpu.core0.l1.evictions": 0,
    "cpu.core0.l2.hits": 0, "cpu.core0.l2.misses": 1942,
    "cpu.core0.l2.evictions": 1855,
    **{f"cpu.core{core}.{level}.{key}": 0
       for core in (1, 2) for level in ("l1", "l2")
       for key in ("hits", "misses", "evictions")},
    "cpu.core3.l1.hits": 2, "cpu.core3.l1.misses": 154,
    "cpu.core3.l1.evictions": 34,
    "cpu.core3.l2.hits": 0, "cpu.core3.l2.misses": 154,
    "cpu.core3.l2.evictions": 11,
    "ring.cpu.transfers": 2096, "ring.cpu.waited_fs": 1915163766,
    "ring.gpu.transfers": 2250, "ring.gpu.waited_fs": 292042942,
    "dram.accesses": 1726, "dram.row_misses": 631,
}

CONTENTION_CENSUS = {
    "events_executed": 59789,
    "llc.hits": 13529, "llc.misses": 2747, "llc.evictions": 0,
    "gpu_l3.hits": 0, "gpu_l3.misses": 9536, "gpu_l3.evictions": 9024,
    "cpu.core0.l1.hits": 19, "cpu.core0.l1.misses": 6621,
    "cpu.core0.l1.evictions": 6361,
    "cpu.core0.l2.hits": 68, "cpu.core0.l2.misses": 6553,
    "cpu.core0.l2.evictions": 6297,
    **{f"cpu.core{core}.{level}.{key}": 0
       for core in (1, 2) for level in ("l1", "l2")
       for key in ("hits", "misses", "evictions")},
    "cpu.core3.l1.hits": 4, "cpu.core3.l1.misses": 187,
    "cpu.core3.l1.evictions": 56,
    "cpu.core3.l2.hits": 0, "cpu.core3.l2.misses": 187,
    "cpu.core3.l2.evictions": 18,
    "ring.cpu.transfers": 6740, "ring.cpu.waited_fs": 6615594476,
    "ring.gpu.transfers": 9536, "ring.gpu.waited_fs": 67118081609,
    "dram.accesses": 2747, "dram.row_misses": 989,
}


def test_llc_transmit_census(monkeypatch):
    from repro.core.llc_channel import LLCChannel, LLCChannelConfig

    channel = LLCChannel(LLCChannelConfig())
    census = _transmit_census(
        monkeypatch, lambda: channel.transmit(n_bits=8, seed=1)
    )
    assert census == LLC_CENSUS


def test_contention_transmit_census(monkeypatch):
    from repro.core.contention_channel import (
        ContentionChannel,
        ContentionChannelConfig,
    )
    from repro.sim import fastpath

    channel = ContentionChannel(ContentionChannelConfig())
    with fastpath.forced(True):
        calibration = channel.calibrate(seed=1)
    census = _transmit_census(
        monkeypatch,
        lambda: channel.transmit(n_bits=8, seed=1, calibration=calibration),
    )
    assert census == CONTENTION_CENSUS
