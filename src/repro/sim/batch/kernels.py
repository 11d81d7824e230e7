"""Lockstep kernels: vectorized replays of specific trial functions.

A kernel advances every trial of one *shape group* (identical params up
to the registered per-trial keys) through the same logical timeline the
serial engine would execute, but over ``[trial, ...]`` numpy arrays.
The contract is byte-exactness: for every trial the kernel completes,
its outcome dict must equal the serial oracle's bit for bit — the
equivalence suite (``tests/test_batch_lockstep.py``) pins this, and any
trial the kernel cannot prove it can replay faithfully is *ejected*
(returned as ``None``) for the caller to re-run serially.

The one kernel shipped here replays
:func:`repro.analysis.probe_sweep.probe_trial`.  Its legality argument:

* The trial's schedule is temporally disjoint — the trojan burst ends
  before the spy probe starts and the probe ends before the next slot —
  so within a trial the two agents never interleave and a slot folds
  into straight-line updates (trojan burst, then probe).  The kernel
  checks the disjointness *per trial per slot* from the actual clocks
  (strict inequalities; the equal-time boundary cases are bookkeeping
  only) and ejects any lane where it fails, so the assumption is
  enforced, never trusted.
* Trials are mutually independent, so lanes advance in lockstep with
  boolean masks carrying per-trial divergence (payload bits, ragged
  ``n_slots``, warm starts) and ejected lanes simply stop participating
  — their half-updated arrays are garbage no other lane can see.
* Every latency constant, rounding and state-update order is taken from
  the same config methods and replicated from the same access-path
  code the machine executes (see :mod:`repro.sim.batch.state`).

Two structural shortcuts make the kernel fast without bending the
contract:

* **Trojan private-cache elision (CPU trojan only).**  When the CPU
  trojan runs on its own core and touches more distinct lines per
  target set than either private level has ways, every one of its
  accesses provably misses L1 and L2: lines of one target set share an
  L1/L2 set (their set index is a low-bit mask of the same shifted
  address, gated on ``l1_sets``/``l2_sets`` dividing the LLC's
  ``sets_per_slice``), and between two accesses of the same line the
  burst issues ``T - 1 >= ways`` distinct same-set installs, each of
  which ages the line by one true-LRU rank — it is evicted before it
  recurs.  The trojan's private-cache state is then unobservable — no
  access ever hits it, nothing else reads it, and invalidations of it
  have no counters — so the kernel skips the arrays entirely and sends
  each trojan access straight down the miss path.  This holds across
  warm forks too: the serial prefix ran the same burst pattern, so the
  spacing argument spans the boundary.  The GPU L3's tree-pLRU gets no
  such theorem (its victim chain after the empty-fill phase revisits
  ways out of age order, so old lines *can* survive a full burst and
  hit) — GPU trojans keep their modeled L3.
* **Compact LLC.**  A trial only ever touches its target sets (a
  handful of the thousands of global sets), so per-lane global set
  indices are remapped to a dense range and the LLC arrays are sized at
  the handful.  Warm forks translate the restored machine's occupied
  sets through the same map and eject if anything falls outside it.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro import checkpoint as _checkpoint
from repro.analysis import probe_sweep as _ps
from repro.config import SoCConfig
from repro.exec.seeds import stable_digest
from repro.sim.batch.state import EMPTY, CacheArrays, GroupConstants, LockstepState
from repro.sim.rng import RngStreams
from repro.soc.mmu import Mmu

Params = typing.Dict[str, object]


# ----------------------------------------------------------------------
# Vectorized cache primitives (shared by every level)

_ARANGE = np.arange(0, dtype=np.int64)


def _arange(n: int) -> np.ndarray:
    """A cached ``arange`` prefix (row indices for fancy gathers)."""
    global _ARANGE
    if len(_ARANGE) < n:
        _ARANGE = np.arange(max(n, 1024), dtype=np.int64)
    return _ARANGE[:n]


def _fill(
    cache: CacheArrays,
    lanes: np.ndarray,
    sets: np.ndarray,
    paddr: np.ndarray,
    tick: int,
) -> None:
    """Fill one line per lane, dropping any victim silently (L1 path)."""
    tags = cache.tags[lanes, sets]
    empty = tags == EMPTY
    has_empty = empty.any(axis=1)
    if has_empty.all():
        way = empty.argmax(axis=1)
    elif not has_empty.any():
        way = cache.age[lanes, sets].argmin(axis=1)
    else:
        way = np.where(
            has_empty,
            empty.argmax(axis=1),
            cache.age[lanes, sets].argmin(axis=1),
        )
    cache.tags[lanes, sets, way] = paddr
    cache.age[lanes, sets, way] = tick


def _install(
    cache: CacheArrays,
    lanes: np.ndarray,
    sets: np.ndarray,
    paddr: np.ndarray,
    tick: int,
) -> typing.Tuple[np.ndarray, np.ndarray]:
    """Fill one line per lane; returns ``(evicted tags, victim-path mask)``.

    Replicates :meth:`repro.soc.cache.SetAssocCache.fill`: first
    empty way in way order, else the true-LRU victim (``argmin`` age —
    valid because a full set has every way touched; see state module).
    The eviction counter increments only on the victim path, where the
    displaced tag is always valid.
    """
    m = len(lanes)
    tags = cache.tags[lanes, sets]
    empty = tags == EMPTY
    has_empty = empty.any(axis=1)
    if has_empty.all():
        way = empty.argmax(axis=1)
        evicted = np.full(m, EMPTY)
        victim = np.zeros(m, dtype=bool)
    elif not has_empty.any():
        way = cache.age[lanes, sets].argmin(axis=1)
        evicted = tags[_arange(m), way]
        victim = np.ones(m, dtype=bool)
    else:
        way = np.where(
            has_empty,
            empty.argmax(axis=1),
            cache.age[lanes, sets].argmin(axis=1),
        )
        evicted = np.where(has_empty, EMPTY, tags[_arange(m), way])
        victim = ~has_empty
    cache.tags[lanes, sets, way] = paddr
    cache.age[lanes, sets, way] = tick
    return evicted, victim


def _invalidate(
    cache: CacheArrays,
    lanes: np.ndarray,
    lines: np.ndarray,
    n_sets: int,
    offset_bits: int,
) -> None:
    """Drop ``lines`` from per-lane sets (ages untouched, like the oracle)."""
    live = lines != EMPTY
    if not live.any():
        return
    lanes = lanes[live]
    lines = lines[live]
    sets = (lines >> offset_bits) & (n_sets - 1)
    tags = cache.tags[lanes, sets]
    match = tags == lines[:, None]
    cache.tags[lanes, sets] = np.where(match, EMPTY, tags)


def _plru_touch(
    bits: np.ndarray, lanes: np.ndarray, sets: np.ndarray, ways: np.ndarray,
    levels: int,
) -> None:
    node = np.zeros(len(lanes), dtype=np.int64)
    for level in range(levels):
        side = (ways >> (levels - 1 - level)) & 1
        bits[lanes, sets, node] = 1 - side
        node = 2 * node + 1 + side


def _plru_victim(
    bits: np.ndarray, lanes: np.ndarray, sets: np.ndarray, levels: int
) -> np.ndarray:
    node = np.zeros(len(lanes), dtype=np.int64)
    way = np.zeros(len(lanes), dtype=np.int64)
    for _level in range(levels):
        side = bits[lanes, sets, node]
        way = (way << 1) | side
        node = 2 * node + 1 + side
    return way


# ----------------------------------------------------------------------
# Per-trial setup


class _TrialLane:
    """One trial's scalar setup: placement, payload, prefix, RNG."""

    def __init__(
        self,
        params: Params,
        seed: int,
        config_template: typing.Optional[SoCConfig] = None,
    ) -> None:
        self.params = _ps.merged_params(params)
        self.seed = seed
        if config_template is None:
            self.config = _ps.soc_config(self.params, seed)
        else:
            # Within a shape group the seed is the only config field that
            # varies (``soc_config`` threads it into ``SoCConfig.seed``
            # verbatim and nowhere else), so one template serves all lanes.
            self.config = dataclasses.replace(config_template, seed=seed)
        self.n_slots = int(typing.cast(int, self.params["n_slots"]))
        self.bits = _ps.payload_bits(seed, self.n_slots)
        self.unsupported = False
        doc = _checkpoint.resolve_state(params)
        if doc is None:
            rng = RngStreams(self.config.seed)
            mmu = Mmu(self.config.mmu, rng.stream("mmu"))
            layout = _ps.resolve_layout(self.config, self.params, mmu)
            self.trojan_lines = layout.trojan_lines
            self.spy_sets = layout.spy_sets
            self.targets = layout.targets
            self.dram_rng = rng.stream("dram")
            self.start_slot = 0
            self.probe_prefix: typing.List[typing.List[int]] = []
            self.trojan_fs0 = 0
            self.clock0 = 0
            self.soc = None
        else:
            # Warm fork: restore the machine once (the checkpoint layer's
            # own path) and extract its arrays; the doc carries the lines.
            plan = _ps.plan_from_doc(params, seed, doc)
            self.soc = plan.soc
            self.trojan_lines = plan.trojan_lines
            self.spy_sets = plan.spy_sets
            self.targets = plan.targets
            self.dram_rng = plan.soc.rng.stream("dram")
            self.start_slot = plan.start_slot
            self.probe_prefix = [list(row) for row in plan.probe]
            self.trojan_fs0 = plan.trojan_fs
            self.clock0 = plan.soc.engine.now
            if plan.soc.llc_partition is not None or any(
                until > self.clock0 for until in plan.soc._core_stall_until
            ):
                self.unsupported = True


# ----------------------------------------------------------------------
# The probe-sweep kernel


class ProbeSweepKernel:
    """Vectorized replay of ``probe_sweep.probe_trial`` (see module doc)."""

    fn_key = "repro.analysis.probe_sweep:probe_trial"

    @staticmethod
    def supports(params: Params) -> bool:
        """Whether a trial with these params is lockstep-replayable.

        Gaussian DRAM jitter draws are latency-dependent in count, which
        would couple lanes to their own history in ways the pre-drawn
        uniform block cannot express — those trials stay serial.
        """
        try:
            p = _ps.merged_params(dict(params))
        except Exception:
            return False
        return float(typing.cast(float, p["dram_jitter_ns"])) == 0.0

    @staticmethod
    def group_key(params: Params) -> str:
        """Shape digest: everything but the registered per-trial keys."""
        p = _ps.merged_params(dict(params))
        shape = {k: v for k, v in p.items() if k not in _ps.VARIABLE_KEYS}
        return stable_digest((ProbeSweepKernel.fn_key, sorted(shape.items())))

    @staticmethod
    def lane_footprint_bytes(params: Params) -> int:
        """Per-lane state-array bytes (drives lane-width auto-tuning).

        Sums the int64 arrays ``run`` allocates per trial — private
        caches, GPU L3, compact LLC, the DRAM uniform block, probe
        accumulators.  An estimate of allocation, not a promise.
        """
        p = _ps.merged_params(dict(params))
        config = _ps.soc_config(p, 0)
        n_sets = int(typing.cast(int, p["target_sets"]))
        t_per = int(typing.cast(int, p["trojan_lines_per_set"]))
        s_per = int(typing.cast(int, p["spy_lines_per_set"]))
        n_slots = int(typing.cast(int, p["n_slots"]))
        cpu = config.cpu_cache
        cells = 2 * 2 * (  # two cores' L1+L2, tags + ages
            cpu.l1_sets * cpu.l1_ways + cpu.l2_sets * cpu.l2_ways
        )
        if p["trojan"] == "gpu":
            cells += config.gpu_l3.total_sets * (2 * config.gpu_l3.ways - 1)
        cells += 2 * n_sets * config.llc.ways  # compact LLC tags + ages
        cells += n_slots * n_sets * (t_per + s_per)  # DRAM uniform block
        cells += n_slots * (n_sets + 1)  # probe values + payload
        cells += n_sets * (t_per + s_per) * 3  # line paddrs + set indices
        cells += 32  # clocks, cursors, counters
        return 8 * cells

    def run(
        self, trials: typing.Sequence[typing.Tuple[Params, int]]
    ) -> typing.Tuple[typing.List[typing.Optional[Params]], typing.Dict[str, int]]:
        """Advance all trials in lockstep.

        Returns ``(outcomes, sim)`` where ``outcomes[i]`` is the trial's
        outcome dict or ``None`` if the lane was ejected (divergence, a
        failed disjointness check, an unsupported warm state); ``sim``
        credits the work done in census terms (one event per simulated
        access — a strict lower bound on the serial engine's count).
        """
        lanes: typing.List[_TrialLane] = []
        template: typing.Optional[SoCConfig] = None
        for p0, s0 in trials:
            lane = _TrialLane(dict(p0), s0, template)
            if template is None:
                template = lane.config
            lanes.append(lane)
        n = len(lanes)
        first = lanes[0]
        config = first.config
        const = GroupConstants.from_config(config)
        p = first.params
        n_sets = int(typing.cast(int, p["target_sets"]))
        n_spy = int(typing.cast(int, p["spy_lines_per_set"]))
        use_gpu = p["trojan"] == "gpu"
        trojan_core = int(typing.cast(int, p["trojan_core"]))
        spy_core = int(typing.cast(int, p["spy_core"]))
        slot_fs = round(float(typing.cast(float, p["slot_ns"])) * _ps.FS_PER_NS)
        off_fs = round(
            float(typing.cast(float, p["spy_offset_ns"])) * _ps.FS_PER_NS
        )

        n_slots = np.array([lane.n_slots for lane in lanes], dtype=np.int64)
        start_slot = np.array([lane.start_slot for lane in lanes], dtype=np.int64)
        max_slots = int(n_slots.max()) if n else 0
        bits = np.zeros((n, max_slots), dtype=bool)
        diverge = np.full(n, -1, dtype=np.int64)
        for i, lane in enumerate(lanes):
            bits[i, : lane.n_slots] = lane.bits
            div = lane.params["divergence_slot"]
            if div is not None:
                diverge[i] = int(typing.cast(int, div))

        # Line placement and precomputed per-line set indices.
        troj = np.array([lane.trojan_lines for lane in lanes], dtype=np.int64)
        spy = np.array([lane.spy_sets for lane in lanes], dtype=np.int64)
        off = const.offset_bits
        t_per_set = troj.shape[1] // n_sets

        def l1_set(a: np.ndarray) -> np.ndarray:
            return (a >> off) & (const.l1_sets - 1)

        def l2_set(a: np.ndarray) -> np.ndarray:
            return (a >> off) & (const.l2_sets - 1)

        def llc_gset(a: np.ndarray) -> np.ndarray:
            slices = _ps.slice_of_lines(config, a)
            local = (a >> off) & (const.llc_sets_per_slice - 1)
            return slices * const.llc_sets_per_slice + local

        def l3_set(a: np.ndarray) -> np.ndarray:
            return (a >> off) & (const.l3_sets - 1)

        troj_llc = llc_gset(troj)
        spy_llc = llc_gset(spy)
        spy_l1 = l1_set(spy)
        spy_l2 = l2_set(spy)

        # Trojan private-cache elision (see module docstring for the
        # always-miss proof).  With it, the trojan's side of the machine
        # reduces to the miss path and its cache arrays vanish.
        elide_trojan = (
            not use_gpu
            and trojan_core != spy_core
            and t_per_set > const.l1_ways
            and t_per_set > const.l2_ways
            and const.l1_sets <= const.llc_sets_per_slice
            and const.l2_sets <= const.llc_sets_per_slice
        )
        if use_gpu or elide_trojan:
            cores: typing.List[int] = sorted({spy_core})
        else:
            cores = sorted({trojan_core, spy_core})
        if not elide_trojan:
            if use_gpu:
                troj_l3 = l3_set(troj)
                troj_l1 = troj_l2 = None
            else:
                troj_l1 = l1_set(troj)
                troj_l2 = l2_set(troj)
                troj_l3 = None

        # Compact LLC: remap each lane's global set indices onto a dense
        # range so the arrays hold only the touched sets.
        troj_cset = np.empty_like(troj_llc)
        spy_cset = np.empty_like(spy_llc)
        llc_maps: typing.List[typing.Dict[int, int]] = []
        n_used = 1
        for i in range(n):
            uniq = np.unique(
                np.concatenate((troj_llc[i], spy_llc[i].ravel()))
            )
            llc_maps.append({int(g): k for k, g in enumerate(uniq)})
            troj_cset[i] = np.searchsorted(uniq, troj_llc[i])
            spy_cset[i] = np.searchsorted(uniq, spy_llc[i].ravel()).reshape(
                spy_llc[i].shape
            )
            n_used = max(n_used, len(uniq))

        # Per-trial DRAM uniforms: one block draw consumes PCG64 exactly
        # like the oracle's single draws; over-drawing is unobservable
        # because nothing reads the stream after the trial.
        budget = np.maximum(
            (n_slots - start_slot) * n_sets * (t_per_set + n_spy),
            1,
        )
        state = LockstepState(
            const,
            n,
            cores,
            use_gpu and not elide_trojan,
            int(budget.max()),
            n_used,
        )
        for i, lane in enumerate(lanes):
            state.dram_draws[i, : budget[i]] = lane.dram_rng.random(int(budget[i]))
            if lane.soc is not None and not lane.unsupported:
                if not state.load_soc(i, lane.soc, cores, llc_maps[i]):
                    lane.unsupported = True
            state.ejected[i] = lane.unsupported
        clk_t = np.array([lane.clock0 for lane in lanes], dtype=np.int64)
        clk_s = clk_t.copy()
        trojan_acc = np.zeros(n, dtype=np.int64)
        probe_vals = np.zeros((n, max_slots, n_sets), dtype=np.int64)
        self._ops = 0
        if use_gpu:
            t_pre, t_tail = const.gpu_pre_fs, const.gpu_tail_base_fs
            t_domain = "gpu"
        else:
            t_pre, t_tail = const.cpu_pre_fs, const.cpu_tail_base_fs
            t_domain = "cpu"

        for s in range(max_slots):
            live = ~state.ejected & (s >= start_slot) & (s < n_slots)
            if not live.any():
                continue
            state.ejected |= live & (diverge == s)
            live &= diverge != s
            t_slot = s * slot_fs
            np.maximum(clk_t, t_slot, out=clk_t, where=live)
            transmit = live & bits[:, s]
            # Disjointness check, trojan side: the spy must have finished
            # its previous probe before a transmitting trojan starts.
            overlap = transmit & (clk_t < clk_s)
            state.ejected |= overlap
            live &= ~overlap
            transmit &= ~overlap
            if transmit.any():
                lanes_t = np.nonzero(transmit)[0]
                for j in range(troj.shape[1]):
                    if elide_trojan:
                        self._ops += len(lanes_t)
                        lat = self._miss_path(
                            state, lanes_t, troj[lanes_t, j],
                            troj_cset[lanes_t, j], t_domain, t_pre, t_tail,
                            cores, clk_t,
                        )
                        clk_t[lanes_t] += lat
                    elif use_gpu:
                        lat = self._gpu_access(
                            state, lanes_t, troj[lanes_t, j],
                            troj_l3[lanes_t, j], troj_cset[lanes_t, j],
                            cores, clk_t,
                        )
                    else:
                        lat = self._cpu_access(
                            state, lanes_t, troj[lanes_t, j],
                            troj_l1[lanes_t, j], troj_l2[lanes_t, j],
                            troj_cset[lanes_t, j], trojan_core, cores, clk_t,
                        )
                    trojan_acc[lanes_t] += lat
            np.maximum(clk_s, t_slot + off_fs, out=clk_s, where=live)
            # Disjointness check, spy side: the trojan burst must have
            # ended before the probe starts.
            overlap = live & (clk_s < clk_t)
            state.ejected |= overlap
            live &= ~overlap
            if not live.any():
                continue
            lanes_s = np.nonzero(live)[0]
            for set_i in range(n_sets):
                row = np.zeros(len(lanes_s), dtype=np.int64)
                for j in range(n_spy):
                    row += self._cpu_access(
                        state, lanes_s, spy[lanes_s, set_i, j],
                        spy_l1[lanes_s, set_i, j], spy_l2[lanes_s, set_i, j],
                        spy_cset[lanes_s, set_i, j], spy_core, cores, clk_s,
                    )
                probe_vals[lanes_s, s, set_i] = row

        outcomes: typing.List[typing.Optional[Params]] = []
        final_max = 0
        threshold = _ps.decode_threshold_fs(config)
        for i, lane in enumerate(lanes):
            if state.ejected[i]:
                outcomes.append(None)
                continue
            probe_rows = lane.probe_prefix + [
                [int(v) for v in probe_vals[i, s]]
                for s in range(lane.start_slot, lane.n_slots)
            ]
            final_now = int(max(clk_t[i], clk_s[i]))
            final_max = max(final_max, final_now)
            outcomes.append({
                "bits": list(lane.bits),
                "rx_bits": _ps.decode_probe(probe_rows, n_spy, threshold),
                "probe_fs": probe_rows,
                "trojan_fs": int(lane.trojan_fs0 + trojan_acc[i]),
                "final_now_fs": final_now,
                "targets": [list(t) for t in lane.targets],
                "llc": {
                    "hits": int(state.llc_hits[i]),
                    "misses": int(state.llc_misses[i]),
                    "evictions": int(state.llc_evictions[i]),
                },
                "dram": {
                    "accesses": int(state.dram_accesses[i]),
                    "row_misses": int(state.dram_row_misses[i]),
                    "total_latency_fs": int(state.dram_total_fs[i]),
                },
                "ring": {
                    "transfers": {
                        d: int(state.ring_transfers[d][i]) for d in ("cpu", "gpu")
                    },
                    "waited_fs": {
                        d: int(state.ring_waited[d][i]) for d in ("cpu", "gpu")
                    },
                },
            })
        sim = {
            "engines_created": 0,
            "events_executed": int(self._ops),
            "final_now_fs": final_max,
        }
        return outcomes, sim

    # ------------------------------------------------------------------
    # One access per lane, vectorized across lanes

    def _miss_path(
        self,
        state: LockstepState,
        lanes: np.ndarray,
        paddr: np.ndarray,
        cset: np.ndarray,
        domain: str,
        pre_fs: int,
        tail_base_fs: int,
        cores: typing.Sequence[int],
        clk: np.ndarray,
    ) -> np.ndarray:
        """Ring → LLC → DRAM for lanes whose private caches missed.

        Mirrors the miss path of the SoC's fast-path resolvers: the ring
        is reserved at the logical time t1 = t0 + pre; the LLC mutates at
        t3 = grant + hold;
        a DRAM draw happens only on an LLC miss.  Returns the total
        access latency per lane (``clk`` is *not* advanced here).
        """
        const = state.constants
        t1 = clk[lanes] + pre_fs
        waited = state.ring_busy_until[lanes] - t1
        np.maximum(waited, 0, out=waited)
        state.ring_busy_until[lanes] = t1 + waited + const.ring_hold_fs
        state.ring_transfers[domain][lanes] += 1
        state.ring_waited[domain][lanes] += waited
        lat = waited + (pre_fs + const.ring_hold_fs + tail_base_fs)
        tags = state.llc.tags[lanes, cset]
        match = tags == paddr[:, None]
        hit = match.any(axis=1)
        if hit.any():
            hl = lanes[hit]
            state.llc_hits[hl] += 1
            state.llc.age[hl, cset[hit], match[hit].argmax(axis=1)] = (
                state.next_tick()
            )
            if hit.all():
                return lat
        miss = ~hit
        nzm = np.nonzero(miss)[0]
        ml = lanes[nzm]
        state.llc_misses[ml] += 1
        evicted, victim = _install(
            state.llc, ml, cset[nzm], paddr[nzm], state.next_tick()
        )
        state.llc_evictions[ml] += victim
        # Inclusive back-invalidation into every core's private caches
        # (the GPU L3 is non-inclusive and keeps its copy).
        for core in cores:
            _invalidate(
                state.l1[core], ml, evicted, const.l1_sets, const.offset_bits
            )
            _invalidate(
                state.l2[core], ml, evicted, const.l2_sets, const.offset_bits
            )
        draw = state.dram_draws[ml, state.dram_cursor[ml]]
        state.dram_cursor[ml] += 1
        row_miss = draw >= const.row_hit_probability
        dram_fs = np.where(row_miss, const.dram_miss_fs, const.dram_hit_fs)
        state.dram_accesses[ml] += 1
        state.dram_row_misses[ml] += row_miss
        state.dram_total_fs[ml] += dram_fs
        lat[nzm] += dram_fs
        return lat

    def _cpu_access(
        self,
        state: LockstepState,
        lanes: np.ndarray,
        paddr: np.ndarray,
        s1: np.ndarray,
        s2: np.ndarray,
        cset: np.ndarray,
        core: int,
        cores: typing.Sequence[int],
        clk: np.ndarray,
    ) -> np.ndarray:
        """One CPU load per lane; advances ``clk`` and returns latencies."""
        const = state.constants
        self._ops += len(lanes)
        l1 = state.l1[core]
        tags1 = l1.tags[lanes, s1]
        match1 = tags1 == paddr[:, None]
        hit1 = match1.any(axis=1)
        if hit1.all():
            l1.age[lanes, s1, match1.argmax(axis=1)] = state.next_tick()
            lat = np.full(len(lanes), const.d1_fs, dtype=np.int64)
            clk[lanes] += lat
            return lat
        lat = np.empty(len(lanes), dtype=np.int64)
        if hit1.any():
            l1.age[lanes[hit1], s1[hit1], match1[hit1].argmax(axis=1)] = (
                state.next_tick()
            )
            lat[hit1] = const.d1_fs
        nz1 = np.nonzero(~hit1)[0]
        ml = lanes[nz1]
        mp = paddr[nz1]
        # The L1 fill happens before the L2 lookup (burst-path order);
        # its victim is silently dropped, exactly like l1.access().
        _fill(l1, ml, s1[nz1], mp, state.next_tick())
        l2 = state.l2[core]
        ms2 = s2[nz1]
        tags2 = l2.tags[ml, ms2]
        match2 = tags2 == mp[:, None]
        hit2 = match2.any(axis=1)
        if hit2.any():
            l2.age[ml[hit2], ms2[hit2], match2[hit2].argmax(axis=1)] = (
                state.next_tick()
            )
            lat[nz1[hit2]] = const.d2_fs
        miss2 = ~hit2
        if miss2.any():
            rl = ml[miss2]
            evicted, _ = _install(
                l2, rl, ms2[miss2], mp[miss2], state.next_tick()
            )
            # L2 eviction invalidates the same core's L1 copy only.
            _invalidate(l1, rl, evicted, const.l1_sets, const.offset_bits)
            lat[nz1[miss2]] = self._miss_path(
                state, rl, mp[miss2], cset[nz1[miss2]], "cpu",
                const.cpu_pre_fs, const.cpu_tail_base_fs, cores, clk,
            )
        clk[lanes] += lat
        return lat

    def _gpu_access(
        self,
        state: LockstepState,
        lanes: np.ndarray,
        paddr: np.ndarray,
        s3: np.ndarray,
        cset: np.ndarray,
        cores: typing.Sequence[int],
        clk: np.ndarray,
    ) -> np.ndarray:
        """One GPU load per lane through L3 → ring → LLC → DRAM."""
        const = state.constants
        self._ops += len(lanes)
        l3 = state.l3
        assert l3 is not None
        levels = const.l3_ways.bit_length() - 1
        lat = np.empty(len(lanes), dtype=np.int64)
        tags = l3.tags[lanes, s3]
        match = tags == paddr[:, None]
        hit = match.any(axis=1)
        if hit.any():
            _plru_touch(
                l3.bits, lanes[hit], s3[hit], match[hit].argmax(axis=1), levels
            )
            lat[hit] = const.d3_fs
        miss = ~hit
        if miss.any():
            ml = lanes[miss]
            ms = s3[miss]
            mtags = tags[miss]
            empty = mtags == EMPTY
            has_empty = empty.any(axis=1)
            way = np.where(
                has_empty,
                empty.argmax(axis=1),
                _plru_victim(l3.bits, ml, ms, levels),
            )
            # Non-inclusive: the displaced L3 line is silently dropped.
            l3.tags[ml, ms, way] = paddr[miss]
            _plru_touch(l3.bits, ml, ms, way, levels)
            lat[miss] = self._miss_path(
                state, ml, paddr[miss], cset[miss], "gpu",
                const.gpu_pre_fs, const.gpu_tail_base_fs, cores, clk,
            )
        clk[lanes] += lat
        return lat


def _contention_kernel() -> typing.Any:
    # Deferred: contention.py imports this module's primitives.
    from repro.sim.batch.contention import ContentionKernel

    return ContentionKernel()


#: Registry keyed by ``module:qualname`` of the trial function — string
#: keys so the executor can look kernels up without importing analysis
#: modules it does not need.
REGISTRY: typing.Dict[str, typing.Callable[[], typing.Any]] = {
    ProbeSweepKernel.fn_key: ProbeSweepKernel,
    "repro.analysis.contention_sweep:contention_trial": _contention_kernel,
}


def kernel_key(fn: typing.Callable) -> str:
    """The registry key of a trial function."""
    return f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', '?')}"


def kernel_for(fn: typing.Callable) -> typing.Optional[typing.Any]:
    """Instantiate the registered kernel for ``fn``, if any."""
    factory = REGISTRY.get(kernel_key(fn))
    return factory() if factory is not None else None
