"""Ring-contention sweep trial: the second lockstep batch family.

One trial is a fixed-schedule covert transmission over the *shared ring
interconnect* (PAPER.md §V, Eq. (3)): whenever its payload bit is 1 the
trojan (the GPU's L3 miss stream, or a second CPU core) floods the ring
with line transfers for the first part of the slot, while the spy times
short probe bursts over its own LLC-resident lines.  A spy probe that
has to queue behind a trojan transfer picks up ring waiting time; on a
quiet slot the spy's latency is *exactly* the uncontended constant, so
any positive wait decodes as a 1.  Optional fault bursts (auxiliary
``"fault"``-domain ring transfers on a seeded schedule) degrade the
channel gracefully for the robustness matrix.

Unlike the prime+probe family the two agents here *interleave* inside a
slot — contention is the signal, not a hazard.  The trial is still
lockstep-replayable because on the fast path every ring reservation is
FIFO by its logical request time ``t1 = t0 + pre`` and request times are
nondecreasing in engine order (the fold guard refuses to reserve past a
pending earlier event), so a kernel can merge the three per-agent event
streams by minimum request time.  ``repro.sim.batch.contention`` does
exactly that; this module stays the bit-exact serial oracle (always used
under ``REPRO_BATCH=0``).

Shared-state disjointness is by construction: the spy's lines live in
LLC set-index class 0 and the trojan's in classes ``1..trojan_sets``, so
no cache set is ever touched by both agents and per-set access order is
per-agent program order.  All DRAM draws happen in a single sequential
warm-up process (both agents' lines become LLC-resident before slot 0),
so the row-mix RNG stream is consumed in straight-line order too.

Checkpoint prefix-forking composes exactly like the probe family:
:func:`prepare_contention_prefix` runs the first ``warm_slots`` slots
once, snapshots the quiescent machine, and forked trials resume from the
snapshot — every wait targets an absolute time, so cold and warm
outcomes are bit-identical.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import checkpoint as _checkpoint
from repro.analysis.probe_sweep import payload_bits
from repro.config import SoCConfig, kaby_lake_model
from repro.errors import SimulationError
from repro.exec.seeds import derive_seed
from repro.sim import FS_PER_NS
from repro.soc.machine import SoC
from repro.soc.mmu import AddressSpace, Mmu

import numpy as np

from repro.analysis.probe_sweep import slice_of_lines

Params = typing.Dict[str, object]

#: Complete parameter surface of one trial; ``contention_trial`` rejects
#: anything else so batch grouping can reason about the full key space.
DEFAULTS: Params = {
    "scale": 8,
    "n_slots": 8,
    "slot_ns": 1800.0,
    # Slot 0 starts at this offset (raised automatically if the warm-up
    # bound exceeds it) so the warm-up prologue never leaks into slot 0.
    "base_ns": 4000.0,
    # Chosen so the spy's probe phase (mod its own uncontended access
    # period) lands inside the trojan's ring-hold window even when the
    # two agents share one clock (CPU trojan): 116 ns ≡ 0.29 ns and
    # 116+309 ns ≡ 0.71 ns mod 12.857 ns, both within the 1.43 ns hold.
    "probe_offset_ns": 116.0,
    "probe_gap_ns": 309.0,
    "probes_per_slot": 2,
    "spy_lines": 12,
    "trojan_sets": 1,
    "trojan_lines_per_set": 12,
    # Burst repeats per transmitting slot: the aggregate traffic of that
    # many GPU workgroups, serialized on the one modeled GPU timeline.
    "n_workgroups": 2,
    "trojan": "gpu",  # "gpu" (L3 miss stream) or "cpu" (a second core)
    "trojan_core": 1,
    "spy_core": 0,
    "dram_jitter_ns": 0.0,
    # Fault model: ``round(intensity * bursts_per_slot * n_slots)`` ring
    # bursts of ``fault_slots`` payload slots each, at seeded times.
    "fault_intensity": 0.0,
    "fault_bursts_per_slot": 1.0,
    "fault_slots": 12,
    "warm_slots": 0,
    # Test-only lever: the batch kernel ejects the trial to the serial
    # engine at this slot.  The serial oracle ignores it entirely, so the
    # outcome is identical either way -- which is the point of the test.
    "divergence_slot": None,
}

#: Params a batch group may vary per trial (everything else must match
#: for two trials to share one lockstep kernel launch).
VARIABLE_KEYS = ("n_slots", "n_workgroups", "divergence_slot", "fault_intensity")

_HUGE_PAGE = 2 * 1024 * 1024


def merged_params(params: Params) -> Params:
    """Defaults + overrides, with unknown keys rejected."""
    clean = _checkpoint.strip_prefix_params(dict(params))
    unknown = set(clean) - set(DEFAULTS)
    if unknown:
        raise SimulationError(f"unknown contention_trial params: {sorted(unknown)}")
    merged = {**DEFAULTS, **clean}
    if merged["trojan"] not in ("cpu", "gpu"):
        raise SimulationError("trojan must be 'cpu' or 'gpu'")
    probes = int(typing.cast(int, merged["probes_per_slot"]))
    if probes < 1:
        raise SimulationError("probes_per_slot must be >= 1")
    offset = float(typing.cast(float, merged["probe_offset_ns"]))
    gap = float(typing.cast(float, merged["probe_gap_ns"]))
    slot = float(typing.cast(float, merged["slot_ns"]))
    if not 0 < offset < slot:
        raise SimulationError("probe_offset_ns must fall inside the slot")
    if probes > 1 and gap <= 0:
        raise SimulationError("probe_gap_ns must be positive")
    if offset + (probes - 1) * gap >= slot:
        raise SimulationError("the last probe must start inside the slot")
    if int(typing.cast(int, merged["n_workgroups"])) < 1:
        raise SimulationError("n_workgroups must be >= 1")
    if float(typing.cast(float, merged["fault_intensity"])) < 0:
        raise SimulationError("fault_intensity must be >= 0")
    return merged


#: Config memo: batch planning asks for the same machine hundreds of
#: times per sweep (``supports``/``group_key``/footprint per trial), and
#: building + validating a model is ~0.5 ms.  Configs are frozen
#: dataclasses, so sharing one instance is safe; the cache is tiny (one
#: entry per distinct scale/jitter/seed) but cleared at a cap anyway.
_CONFIG_CACHE: typing.Dict[typing.Tuple[int, float, int], SoCConfig] = {}


def soc_config(params: Params, seed: int) -> SoCConfig:
    """The trial's machine: scaled model, quiet CPU, fixed-mix DRAM."""
    p = merged_params(params)
    key = (
        int(typing.cast(int, p["scale"])),
        float(typing.cast(float, p["dram_jitter_ns"])),
        seed,
    )
    config = _CONFIG_CACHE.get(key)
    if config is None:
        base = kaby_lake_model(seed, scale=typing.cast(int, p["scale"]))
        config = dataclasses.replace(
            base,
            noise=dataclasses.replace(base.noise, enabled=False),
            dram=dataclasses.replace(
                base.dram,
                jitter_sigma_ns=float(typing.cast(float, p["dram_jitter_ns"])),
            ),
        ).validate()
        if len(_CONFIG_CACHE) >= 1024:
            _CONFIG_CACHE.clear()
        _CONFIG_CACHE[key] = config
    return config


@dataclasses.dataclass(frozen=True)
class PathCosts:
    """Uncontended per-access fixed costs, derived from config alone.

    Mirrors the machine's own precomputation so the oracle, the batch
    kernel and the decoder can never disagree on rounding.
    """

    cpu_access_fs: int  # pre + hold + tail of an LLC-hit CPU load
    gpu_access_fs: int  # pre + hold + tail of an LLC-hit GPU load
    ring_hold_fs: int
    dram_miss_fs: int

    @classmethod
    def from_config(cls, config: SoCConfig) -> "PathCosts":
        cpu = config.cpu_clock.cycles_fs
        gpu = config.gpu_clock.cycles_fs
        d2 = cpu(config.cpu_cache.l2_hit_cycles)
        d3 = gpu(config.gpu_l3.hit_cycles)
        traverse = cpu(config.ring.traverse_cycles)
        gpu_traverse = traverse * config.ring.gpu_traverse_multiplier
        lookup = cpu(config.llc.lookup_cycles)
        line_slots = 1 + config.ring.slots_per_line(config.llc.line_bytes)
        hold = cpu(line_slots * config.ring.slot_cycles)
        miss_ns = config.dram.base_ns + config.dram.row_miss_extra_ns
        return cls(
            cpu_access_fs=(d2 + traverse) + hold + (lookup + traverse),
            gpu_access_fs=(d3 + gpu_traverse) + hold + (lookup + gpu_traverse),
            ring_hold_fs=hold,
            dram_miss_fs=max(1, round(miss_ns * FS_PER_NS)),
        )


def base_offset_fs(config: SoCConfig, params: Params) -> int:
    """Absolute time of slot 0: ``base_ns``, or the warm-up bound if larger.

    The warm-up prologue is a single sequential process (so every access
    rides the ring unqueued), which makes its worst case a closed form:
    every line misses the LLC and draws a DRAM row miss.
    """
    p = merged_params(params)
    costs = PathCosts.from_config(config)
    n_trojan = int(typing.cast(int, p["trojan_sets"])) * int(
        typing.cast(int, p["trojan_lines_per_set"])
    )
    n_spy = int(typing.cast(int, p["spy_lines"]))
    trojan_cost = (
        costs.gpu_access_fs if p["trojan"] == "gpu" else costs.cpu_access_fs
    )
    bound = n_trojan * (trojan_cost + costs.dram_miss_fs) + n_spy * (
        costs.cpu_access_fs + costs.dram_miss_fs
    )
    return max(round(float(typing.cast(float, p["base_ns"])) * FS_PER_NS), bound)


def quiet_slot_fs(config: SoCConfig, params: Params) -> int:
    """Exact per-slot probe latency sum of an uncontended slot."""
    p = merged_params(params)
    costs = PathCosts.from_config(config)
    return (
        int(typing.cast(int, p["probes_per_slot"]))
        * int(typing.cast(int, p["spy_lines"]))
        * costs.cpu_access_fs
    )


def decode_threshold_fs(config: SoCConfig, params: Params) -> int:
    """Per-slot decision point: quiet is *exact*, so the margin is thin.

    Any queued probe adds at least a fraction of one ring hold; an
    eighth of a hold above the quiet constant separates signal from the
    (zero-width) quiet distribution while staying below the smallest
    partial-overlap wait worth detecting.
    """
    costs = PathCosts.from_config(config)
    return quiet_slot_fs(config, params) + max(1, costs.ring_hold_fs // 8)


def decode_slots(
    probe_rows: typing.Sequence[typing.Sequence[int]], threshold_fs: int
) -> typing.List[int]:
    """Per-slot received bits from per-(slot, probe) latency sums."""
    return [1 if sum(row) > threshold_fs else 0 for row in probe_rows]


def fault_schedule(params: Params, seed: int, config: SoCConfig) -> typing.List[int]:
    """Absolute start times of every fault burst (sorted, may be empty).

    A pure function of ``(params, seed)``: burst k's offset into the
    transmission window is a seeded hash, so the serial oracle and the
    batch kernel derive the identical schedule independently.
    """
    p = merged_params(params)
    intensity = float(typing.cast(float, p["fault_intensity"]))
    per_slot = float(typing.cast(float, p["fault_bursts_per_slot"]))
    n_slots = int(typing.cast(int, p["n_slots"]))
    n_bursts = int(round(intensity * per_slot * n_slots))
    if n_bursts <= 0:
        return []
    base = base_offset_fs(config, p)
    slot_fs = round(float(typing.cast(float, p["slot_ns"])) * FS_PER_NS)
    span = n_slots * slot_fs
    return sorted(
        base + derive_seed(seed, "fault-burst", k) % span for k in range(n_bursts)
    )


@dataclasses.dataclass
class ContentionPlan:
    """One trial's machine plus its fully-resolved schedule and lines."""

    soc: SoC
    params: Params
    bits: typing.List[int]
    base_fs: int
    slot_fs: int
    offset_fs: int
    gap_fs: int
    spy_lines: typing.List[int]
    #: Flat trojan list, set-class-major (one burst repeats it
    #: ``n_workgroups`` times).
    trojan_lines: typing.List[int]
    #: ``(set_index, slice_index)`` per set class, spy's class first.
    targets: typing.List[typing.Tuple[int, int]]
    fault_sched: typing.List[int]
    start_slot: int = 0
    #: Per-slot, per-probe latency sums.
    probe: typing.List[typing.List[int]] = dataclasses.field(default_factory=list)
    trojan_fs: int = 0


@dataclasses.dataclass
class ContentionLayout:
    """Line placement of one trial (a pure function of config + MMU stream)."""

    spy_lines: typing.List[int]
    trojan_lines: typing.List[int]
    targets: typing.List[typing.Tuple[int, int]]


def resolve_layout(
    config: SoCConfig, params: Params, mmu: Mmu
) -> ContentionLayout:
    """Allocate both agents' buffers and pick per-set-class lines.

    SoC-free for the same reason as the probe family's: the batch
    kernel's cold path resolves placement over a bare MMU on the trial's
    own ``"mmu"`` RNG stream.  The spy draws from set-index class 0 of
    its buffer, the trojan from classes ``1..trojan_sets`` of its own —
    distinct set-index bits guarantee the two agents' LLC (and private
    cache) footprints are disjoint.
    """
    p = merged_params(params)
    trojan_space = AddressSpace(mmu, "contention-trojan")
    spy_space = AddressSpace(mmu, "contention-spy")
    trojan_base = trojan_space.mmap(_HUGE_PAGE, page_bytes=_HUGE_PAGE).paddr_of(0)
    spy_base = spy_space.mmap(_HUGE_PAGE, page_bytes=_HUGE_PAGE).paddr_of(0)
    line = config.llc.line_bytes
    sets_per_slice = config.llc.sets_per_slice
    n_lines = _HUGE_PAGE // line
    n_spy = int(typing.cast(int, p["spy_lines"]))
    n_trojan = int(typing.cast(int, p["trojan_lines_per_set"]))
    n_classes = int(typing.cast(int, p["trojan_sets"])) + 1
    if n_classes > sets_per_slice:
        raise SimulationError("trojan_sets + 1 must fit in one slice's sets")
    spy_lines: typing.List[int] = []
    trojan_lines: typing.List[int] = []
    targets: typing.List[typing.Tuple[int, int]] = []
    for set_index in range(n_classes):
        base = spy_base if set_index == 0 else trojan_base
        want = n_spy if set_index == 0 else n_trojan
        offsets = np.arange(set_index, n_lines, sets_per_slice, dtype=np.int64)
        candidates = base + offsets * line
        slices = slice_of_lines(config, candidates)
        slice_index = int(slices[0])
        chosen = candidates[slices == slice_index]
        if len(chosen) < want:
            raise SimulationError(
                f"buffer too small for LLC set ({slice_index}, {set_index}); "
                "lower trojan_sets/lines or raise scale"
            )
        if set_index == 0:
            spy_lines = [int(x) for x in chosen[:want]]
        else:
            trojan_lines.extend(int(x) for x in chosen[:want])
        targets.append((set_index, slice_index))
    return ContentionLayout(spy_lines, trojan_lines, targets)


def _plan_schedule(p: Params, config: SoCConfig) -> typing.Tuple[int, int, int, int]:
    base_fs = base_offset_fs(config, p)
    slot_fs = round(float(typing.cast(float, p["slot_ns"])) * FS_PER_NS)
    offset_fs = round(float(typing.cast(float, p["probe_offset_ns"])) * FS_PER_NS)
    gap_fs = round(float(typing.cast(float, p["probe_gap_ns"])) * FS_PER_NS)
    return base_fs, slot_fs, offset_fs, gap_fs


def build_plan(params: Params, seed: int) -> ContentionPlan:
    """Cold-start plan: fresh machine, fresh buffers, resolved line sets."""
    p = merged_params(params)
    soc = SoC(soc_config(p, seed))
    layout = resolve_layout(soc.config, p, soc.mmu)
    n_slots = typing.cast(int, p["n_slots"])
    base_fs, slot_fs, offset_fs, gap_fs = _plan_schedule(p, soc.config)
    return ContentionPlan(
        soc=soc,
        params=p,
        bits=payload_bits(seed, n_slots),
        base_fs=base_fs,
        slot_fs=slot_fs,
        offset_fs=offset_fs,
        gap_fs=gap_fs,
        spy_lines=layout.spy_lines,
        trojan_lines=layout.trojan_lines,
        targets=layout.targets,
        fault_sched=fault_schedule(p, seed, soc.config),
    )


def plan_from_doc(params: Params, seed: int, doc: typing.Mapping) -> ContentionPlan:
    """Warm plan: machine restored from a prefix snapshot, lines from the doc."""
    p = merged_params(params)
    soc = _checkpoint.restore_soc(
        soc_config(p, seed), typing.cast(dict, doc["snapshot"])
    )
    n_slots = typing.cast(int, p["n_slots"])
    warm = int(typing.cast(int, doc["warm_slots"]))
    if warm > n_slots:
        raise SimulationError(
            f"prefix ran {warm} slots but the trial only has {n_slots}"
        )
    base_fs, slot_fs, offset_fs, gap_fs = _plan_schedule(p, soc.config)
    return ContentionPlan(
        soc=soc,
        params=p,
        bits=payload_bits(seed, n_slots),
        base_fs=base_fs,
        slot_fs=slot_fs,
        offset_fs=offset_fs,
        gap_fs=gap_fs,
        spy_lines=[int(x) for x in doc["spy_lines"]],
        trojan_lines=[int(x) for x in doc["trojan_lines"]],
        targets=[(int(a), int(b)) for a, b in doc["targets"]],
        fault_sched=fault_schedule(p, seed, soc.config),
        start_slot=warm,
        probe=[[int(x) for x in row] for row in doc["probe"]],
        trojan_fs=int(typing.cast(int, doc["trojan_fs"])),
    )


def _warmup_proc(plan: ContentionPlan) -> typing.Generator:
    """Sequential prologue: make every line LLC-resident before slot 0.

    Being the only process alive, it never queues on the ring and its
    DRAM draws happen in straight-line program order — which is what
    lets the batch kernel replay them from a pre-drawn block.
    """
    soc = plan.soc
    if plan.params["trojan"] == "gpu":
        yield from soc.gpu_access_burst(plan.trojan_lines)
    else:
        core = typing.cast(int, plan.params["trojan_core"])
        yield from soc.cpu_access_burst(core, plan.trojan_lines)
    spy_core = typing.cast(int, plan.params["spy_core"])
    yield from soc.cpu_access_burst(spy_core, plan.spy_lines)


def run_warmup(plan: ContentionPlan) -> None:
    plan.soc.engine.process(_warmup_proc(plan))
    plan.soc.engine.run()


def _trojan_proc(plan: ContentionPlan, start: int, end: int) -> typing.Generator:
    soc = plan.soc
    core = typing.cast(int, plan.params["trojan_core"])
    use_gpu = plan.params["trojan"] == "gpu"
    burst = plan.trojan_lines * typing.cast(int, plan.params["n_workgroups"])
    for s in range(start, end):
        target = plan.base_fs + s * plan.slot_fs
        now = soc.engine.now
        if target > now:
            yield target - now
        if plan.bits[s]:
            if use_gpu:
                latencies = yield from soc.gpu_access_burst(burst)
            else:
                latencies = yield from soc.cpu_access_burst(core, burst)
            plan.trojan_fs += sum(latencies)


def _spy_proc(plan: ContentionPlan, start: int, end: int) -> typing.Generator:
    soc = plan.soc
    core = typing.cast(int, plan.params["spy_core"])
    probes = typing.cast(int, plan.params["probes_per_slot"])
    for s in range(start, end):
        row = []
        for p_i in range(probes):
            target = (
                plan.base_fs + s * plan.slot_fs + plan.offset_fs
                + p_i * plan.gap_fs
            )
            now = soc.engine.now
            if target > now:
                yield target - now
            latencies = yield from soc.cpu_access_burst(core, plan.spy_lines)
            row.append(sum(latencies))
        plan.probe.append(row)


def _fault_proc(plan: ContentionPlan, start: int, end: int) -> typing.Generator:
    soc = plan.soc
    slots = typing.cast(int, plan.params["fault_slots"])
    lo = plan.base_fs + start * plan.slot_fs
    hi = plan.base_fs + end * plan.slot_fs
    for target in plan.fault_sched:
        if not lo <= target < hi:
            continue
        now = soc.engine.now
        if target > now:
            yield target - now
        yield from soc.ring.transfer(slots, "fault")


def run_span(plan: ContentionPlan, start: int, end: int) -> None:
    """Advance the plan's machine through slots ``[start, end)``."""
    if start >= end:
        return
    plan.soc.engine.process(_trojan_proc(plan, start, end))
    plan.soc.engine.process(_spy_proc(plan, start, end))
    lo = plan.base_fs + start * plan.slot_fs
    hi = plan.base_fs + end * plan.slot_fs
    if any(lo <= t < hi for t in plan.fault_sched):
        plan.soc.engine.process(_fault_proc(plan, start, end))
    plan.soc.engine.run()


def outcome_from_plan(plan: ContentionPlan) -> Params:
    """The trial's pure outcome dict (ints and lists only)."""
    soc = plan.soc
    rx_bits = decode_slots(
        plan.probe, decode_threshold_fs(soc.config, plan.params)
    )
    evictions = sum(
        soc.llc.slice_cache(i).evictions for i in range(soc.config.llc.slices)
    )
    return {
        "bits": list(plan.bits),
        "rx_bits": rx_bits,
        "probe_fs": [list(row) for row in plan.probe],
        "trojan_fs": plan.trojan_fs,
        "final_now_fs": soc.engine.now,
        "targets": [list(t) for t in plan.targets],
        "llc": {
            "hits": soc.llc.hits,
            "misses": soc.llc.misses,
            "evictions": evictions,
        },
        "dram": soc.dram.state_dict(),
        "ring": {
            "transfers": dict(soc.ring.transfers),
            "waited_fs": dict(soc.ring.waited_fs),
        },
    }


def contention_trial(params: Params, seed: int) -> Params:
    """One ring-contention transmission; the batch engine's serial oracle.

    Forks from an injected checkpoint doc when one is present (the
    executor's prefix scheduling), cold-starts otherwise; both paths
    produce byte-identical outcomes.
    """
    doc = _checkpoint.resolve_state(typing.cast(dict, params))
    if doc is not None:
        plan = plan_from_doc(params, seed, doc)
    else:
        plan = build_plan(params, seed)
        run_warmup(plan)
    run_span(plan, plan.start_slot, typing.cast(int, plan.params["n_slots"]))
    return outcome_from_plan(plan)


def prepare_contention_prefix(params: Params, seed: int) -> typing.Dict[str, object]:
    """Shared prefix: warm-up plus the first ``warm_slots`` slots, snapshotted.

    The doc carries the resolved line sets alongside the machine
    snapshot: re-allocating after a restore would advance the MMU's RNG
    stream past its captured position and land the lines elsewhere.
    """
    p = merged_params(params)
    warm = typing.cast(int, p["warm_slots"])
    plan = build_plan(p, seed)
    run_warmup(plan)
    run_span(plan, 0, warm)
    plan.soc.quiesce()
    return {
        "snapshot": _checkpoint.snapshot_soc(plan.soc),
        "warm_slots": warm,
        "spy_lines": list(plan.spy_lines),
        "trojan_lines": list(plan.trojan_lines),
        "targets": [list(t) for t in plan.targets],
        "probe": [list(row) for row in plan.probe],
        "trojan_fs": plan.trojan_fs,
    }

