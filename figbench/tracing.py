"""The traced run: spans at layer boundaries and profiler self time by layer.

Everything here sits outside the program.  ``install`` wraps a handful
of public functions with timing spans (kept in memory, summarised once
at the end) and replaces ``repro.exec.executor.run_one_trial`` with a
wrapper that, per trial, snapshots the counters of every ``SoC`` the
trial built and, in a pool worker, profiles the trial and writes its
fold to one file.  ``fold_profile`` folds a deterministic profiler's
per-function self time into layers by module.  ``per_layer_metrics``
turns one workload's child results into the per-layer metrics, in the
benchmark's parent process.
"""

from __future__ import annotations

import collections
import cProfile
import json
import os
import pstats
import sys
import time
import typing

#: Module prefix -> layer.  Code outside these modules (stdlib, numpy,
#: builtins, and repro's shared helpers such as ``repro.core.framing``
#: or ``repro.obs``) is charged to the layers of its callers.
LAYER_OF_MODULE: typing.Tuple[typing.Tuple[str, str], ...] = (
    ("repro.exec", "exec"),
    ("repro.sim", "sim"),
    ("repro.soc", "soc"),
    ("repro.cpu", "cpu"),
    ("repro.gpu", "gpu"),
    ("repro.core.llc_channel", "llc"),
    ("repro.core.evictionset", "llc"),
    ("repro.core.contention_channel", "contention"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_OF_MODULE))

#: Span name -> (module, attribute path) of the public function it wraps.
SPAN_TARGETS: typing.Tuple[typing.Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Engine.run_until_complete"),
    ("soc.build", "repro.soc.machine", "SoC.__init__"),
    ("llc.session", "repro.core.llc_channel.channel", "LLCChannel.build_session"),
    # The contention channel calls these two through its own module's
    # names, so that is where they are wrapped.
    ("contention.calibrate", "repro.core.contention_channel.channel",
     "calibrate_iteration_factor"),
    ("contention.decode", "repro.core.contention_channel.channel", "decode_samples"),
    ("contention.prepare", "repro.core.contention_channel.channel",
     "ContentionChannel.prepare"),
)


def module_of(filename: str, src_root: str) -> typing.Optional[str]:
    """Dotted module name of a source file under ``src_root``, else None."""
    try:
        rel = os.path.relpath(filename, src_root)
    except ValueError:
        return None
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module: typing.Optional[str]) -> typing.Optional[str]:
    if module is None:
        return None
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def fold_stats(
    stats: typing.Mapping[tuple, tuple], src_root: str
) -> typing.Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats.stats``.

    A function in a layer's module keeps its own self time.  Any other
    function's self time is split over its callers in proportion to the
    self time it spent under each, and follows them to their layers; what
    reaches no layer (the harness, the benchmark) is left out.
    """
    memo: typing.Dict[tuple, typing.Dict[str, float]] = {}

    def shares(func: tuple) -> typing.Dict[str, float]:
        direct = layer_of(module_of(func[0], src_root))
        if direct is not None:
            return {direct: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {}  # a cycle through unlayered code attributes nothing
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        total = sum(value[2] for value in callers.values())
        result: typing.Dict[str, float] = collections.defaultdict(float)
        if total > 0:
            for caller, value in callers.items():
                weight = value[2] / total
                for layer, share in shares(caller).items():
                    result[layer] += weight * share
        memo[func] = dict(result)
        return memo[func]

    totals: typing.Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for func, entry in stats.items():
        self_s = entry[2]
        for layer, share in shares(func).items():
            totals[layer] += self_s * share
    return totals


def fold_profile(profile: cProfile.Profile, src_root: str) -> typing.Dict[str, float]:
    return fold_stats(pstats.Stats(profile).stats, src_root)  # type: ignore[attr-defined]


class Spans:
    """In-memory span log: per name, call count and inclusive seconds.

    Nested calls of the same span (a wrapped function re-entering itself)
    are counted once, at the outermost call, so the seconds never double.
    """

    def __init__(self) -> None:
        self.calls: typing.Dict[str, int] = collections.defaultdict(int)
        self.seconds: typing.Dict[str, float] = collections.defaultdict(float)
        self._depth: typing.Dict[str, int] = collections.defaultdict(int)

    def wrap(self, name: str, fn: typing.Callable) -> typing.Callable:
        spans = self

        def spanned(*args: object, **kwargs: object) -> object:
            spans.calls[name] += 1
            spans._depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans._depth[name] -= 1
                if spans._depth[name] == 0:
                    spans.seconds[name] += time.perf_counter() - start

        return spanned

    def as_dict(self) -> typing.Dict[str, typing.Dict[str, float]]:
        return {
            name: {"calls": self.calls[name], "s": self.seconds[name]}
            for name in sorted(self.calls)
        }

    def reset(self) -> None:
        self.calls.clear()
        self.seconds.clear()
        self._depth.clear()


def soc_counters(snapshot: typing.Mapping[str, typing.Any]) -> typing.Dict[str, float]:
    """The ``soc.*`` counters of one ``SoC.metrics_snapshot()``."""
    llc = snapshot.get("llc", {})
    gpu_l3 = snapshot.get("gpu_l3", {})
    l1 = [core.get("l1", {}) for core in snapshot.get("cpu", {}).values()]
    ring = [d for d in snapshot.get("ring", {}).values() if isinstance(d, dict)]
    dram = snapshot.get("dram", {})
    return {
        "llc_hits": llc.get("hits", 0),
        "llc_misses": llc.get("misses", 0),
        "gpu_l3_hits": gpu_l3.get("hits", 0),
        "gpu_l3_misses": gpu_l3.get("misses", 0),
        "cpu_l1_accesses": sum(c.get("hits", 0) + c.get("misses", 0) for c in l1),
        "ring_transfers": sum(d.get("transfers", 0) for d in ring),
        "ring_waited_fs": sum(d.get("waited_fs", 0) for d in ring),
        "dram_accesses": dram.get("accesses", 0),
        "dram_row_misses": dram.get("row_misses", 0),
    }


class Tracer:
    """Installs the spans and the per-trial wrapper for one traced process."""

    def __init__(self, src_root: str, spool_dir: str) -> None:
        self.src_root = src_root
        self.spool_dir = spool_dir
        self.spans = Spans()
        self.socs: typing.List[object] = []
        self.soc_totals: typing.Dict[str, float] = collections.defaultdict(float)
        self.parent_pid = os.getpid()
        self._undo: typing.List[typing.Tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        from repro.exec import executor as executor_module

        for name, module_name, path in SPAN_TARGETS:
            owner: object = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.spans.wrap(name, original)
            if name == "soc.build":
                wrapped = self._keep_soc(wrapped)
            self._patch(owner, attr, wrapped)
        self._original_trial = executor_module.run_one_trial
        global _ACTIVE
        _ACTIVE = self
        self._patch(executor_module, "run_one_trial", traced_run_one_trial)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        _ACTIVE = None

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _keep_soc(self, init: typing.Callable) -> typing.Callable:
        socs = self.socs

        def init_and_keep(soc: object, *args: object, **kwargs: object) -> None:
            init(soc, *args, **kwargs)
            socs.append(soc)

        return init_and_keep

    def harvest_socs(self) -> None:
        """Fold the counters of every SoC built so far, then drop them."""
        for soc in self.socs:
            for key, value in soc_counters(soc.metrics_snapshot()).items():  # type: ignore[attr-defined]
                self.soc_totals[key] += value
        self.socs.clear()

    def run_trial(self, payload: typing.Sequence[object]) -> object:
        if os.getpid() == self.parent_pid:
            # Serial path: the parent's profiler already sees this trial.
            try:
                return self._original_trial(payload)
            finally:
                self.harvest_socs()
        # Pool worker: forked with the parent's profiler hook, spans and
        # SoC list; start clean, profile this trial, spool the result.
        sys.setprofile(None)
        self.spans.reset()
        self.socs.clear()
        self.soc_totals.clear()
        profile = cProfile.Profile()
        profile.enable()
        try:
            return self._original_trial(payload)
        finally:
            profile.disable()
            self.harvest_socs()
            record = {
                "layers": fold_profile(profile, self.src_root),
                "spans": self.spans.as_dict(),
                "soc": dict(self.soc_totals),
            }
            os.makedirs(self.spool_dir, exist_ok=True)
            path = os.path.join(
                self.spool_dir, f"{os.getpid()}-{time.monotonic_ns()}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle)

    def worker_records(self) -> typing.List[typing.Dict[str, typing.Any]]:
        """Every record pool workers spooled, removing the files."""
        records = []
        if not os.path.isdir(self.spool_dir):
            return records
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as handle:
                records.append(json.load(handle))
            os.remove(path)
        os.rmdir(self.spool_dir)
        return records


#: The installed tracer.  Pool workers unpickle the stand-in below by
#: name, so it can only reach its tracer through the module.
_ACTIVE: typing.Optional[Tracer] = None


def traced_run_one_trial(payload: typing.Sequence[object]) -> object:
    """Stand-in for ``repro.exec.executor.run_one_trial`` while tracing.

    Module-level so pool workers unpickle it by name.
    """
    if _ACTIVE is None:
        raise RuntimeError("tracing is not installed")
    return _ACTIVE.run_trial(payload)


# ----------------------------------------------------------------------
# Per-layer metrics, computed in the benchmark's parent process.

#: name -> (unit, better).  Simulated statistics (accesses, miss shares,
#: ring waits) must not move under a change meant only to speed up the
#: simulator; their direction is nominal.
PER_LAYER: typing.Dict[str, typing.Tuple[str, str]] = {
    "exec.trials": ("count", "higher"),
    "exec.trials_failed": ("count", "lower"),
    "exec.attempts": ("count", "lower"),
    "exec.run_s": ("s", "lower"),
    "exec.trial_s_sum": ("s", "lower"),
    "exec.trial_s_max": ("s", "lower"),
    "exec.worker_busy_pct": ("%", "higher"),
    "exec.payload_kb": ("KiB", "lower"),
    "exec.pool_extra_events": ("count", "lower"),
    "sim.events_executed": ("count", "lower"),
    "sim.engines_created": ("count", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.host_ns_per_event": ("ns", "lower"),
    "soc.build_s": ("s", "lower"),
    "soc.machines_built": ("count", "lower"),
    "soc.self_s": ("s", "lower"),
    "soc.llc_accesses": ("count", "lower"),
    "soc.llc_miss_pct": ("%", "lower"),
    "soc.gpu_l3_accesses": ("count", "lower"),
    "soc.gpu_l3_miss_pct": ("%", "lower"),
    "soc.cpu_l1_accesses": ("count", "lower"),
    "soc.ring_transfers": ("count", "lower"),
    "soc.ring_wait_ns_mean": ("ns", "lower"),
    "soc.dram_accesses": ("count", "lower"),
    "soc.dram_row_miss_pct": ("%", "lower"),
    "soc.host_ns_per_access": ("ns", "lower"),
    "cpu.self_s": ("s", "lower"),
    "gpu.self_s": ("s", "lower"),
    "llc.session_s": ("s", "lower"),
    "llc.self_s": ("s", "lower"),
    "llc.bits": ("count", "higher"),
    "llc.bit_errors": ("count", "lower"),
    "llc.host_ms_per_bit": ("ms", "lower"),
    "contention.calibrate_s": ("s", "lower"),
    "contention.calibrations": ("count", "lower"),
    "contention.prepare_s": ("s", "lower"),
    "contention.decode_s": ("s", "lower"),
    "contention.frame_attempts": ("count", "lower"),
    "contention.first_try_pct": ("%", "higher"),
    "contention.host_ms_per_bit": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
}


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def per_layer_metrics(
    workers: int,
    plain: typing.Mapping[str, typing.Any],
    traced: typing.Mapping[str, typing.Any],
    other: typing.Mapping[str, typing.Any],
    other_workers: int,
) -> typing.Dict[str, typing.Dict[str, object]]:
    """Every ``PER_LAYER`` metric from one workload's three child results.

    ``plain`` is the untraced call (exec timings and counts, host time
    per event and per bit), ``traced`` the profiled call (span seconds,
    self time by layer, SoC counters) and ``other`` the same call at
    ``other_workers`` (for the pool's extra events).  Span and self
    seconds sum the parent and every pool worker; the unattributed share
    is of the parent's traced wall time.
    """
    ex = plain["exec"]
    trace = traced["trace"]
    layers: typing.Dict[str, float] = collections.defaultdict(float)
    spans: typing.Dict[str, typing.Dict[str, float]] = collections.defaultdict(
        lambda: {"calls": 0, "s": 0.0}
    )
    soc: typing.Dict[str, float] = collections.defaultdict(float)
    for record in [
        {"layers": trace["parent_layers"], "spans": trace["parent_spans"],
         "soc": trace["parent_soc"]},
        *trace["workers"],
    ]:
        for layer, seconds in record["layers"].items():
            layers[layer] += seconds
        for name, span in record["spans"].items():
            spans[name]["calls"] += span["calls"]
            spans[name]["s"] += span["s"]
        for key, value in record["soc"].items():
            soc[key] += value

    events_at = {workers: ex["events"], other_workers: other["exec"]["events"]}
    llc_accesses = soc["llc_hits"] + soc["llc_misses"]
    l3_accesses = soc["gpu_l3_hits"] + soc["gpu_l3_misses"]
    values: typing.Dict[str, float] = {
        "exec.trials": ex["trials"],
        "exec.trials_failed": ex["trials_failed"],
        "exec.attempts": ex["attempts"],
        "exec.run_s": ex["run_s"],
        "exec.trial_s_sum": ex["trial_s_sum"],
        "exec.trial_s_max": ex["trial_s_max"],
        "exec.worker_busy_pct": _ratio(
            ex["trial_s_sum"], max(1, workers) * ex["run_s"], 100.0
        ),
        "exec.payload_kb": ex["payload_bytes"] / 1024.0,
        "exec.pool_extra_events": events_at[2] - events_at[0],
        "sim.events_executed": ex["events"],
        "sim.engines_created": ex["engines"],
        "sim.run_s": spans["sim.run"]["s"],
        "sim.self_s": layers["sim"],
        "sim.host_ns_per_event": _ratio(ex["trial_s_sum"], ex["events"], 1e9),
        "soc.build_s": spans["soc.build"]["s"],
        "soc.machines_built": spans["soc.build"]["calls"],
        "soc.self_s": layers["soc"],
        "soc.llc_accesses": llc_accesses,
        "soc.llc_miss_pct": _ratio(soc["llc_misses"], llc_accesses, 100.0),
        "soc.gpu_l3_accesses": l3_accesses,
        "soc.gpu_l3_miss_pct": _ratio(soc["gpu_l3_misses"], l3_accesses, 100.0),
        "soc.cpu_l1_accesses": soc["cpu_l1_accesses"],
        "soc.ring_transfers": soc["ring_transfers"],
        "soc.ring_wait_ns_mean": _ratio(
            soc["ring_waited_fs"], soc["ring_transfers"], 1e-6
        ),
        "soc.dram_accesses": soc["dram_accesses"],
        "soc.dram_row_miss_pct": _ratio(
            soc["dram_row_misses"], soc["dram_accesses"], 100.0
        ),
        # Every modelled access enters at a CPU L1 or at the GPU L3.
        "soc.host_ns_per_access": _ratio(
            layers["soc"], soc["cpu_l1_accesses"] + l3_accesses, 1e9
        ),
        "cpu.self_s": layers["cpu"],
        "gpu.self_s": layers["gpu"],
        "llc.session_s": spans["llc.session"]["s"],
        "llc.self_s": layers["llc"],
        "llc.bits": ex["llc_bits"],
        "llc.bit_errors": ex["llc_bit_errors"],
        "llc.host_ms_per_bit": _ratio(ex["llc_trial_s"], ex["llc_bits"], 1e3),
        "contention.calibrate_s": spans["contention.calibrate"]["s"],
        "contention.calibrations": spans["contention.calibrate"]["calls"],
        "contention.prepare_s": spans["contention.prepare"]["s"],
        "contention.decode_s": spans["contention.decode"]["s"],
        "contention.frame_attempts": ex["frame_attempts"],
        "contention.first_try_pct": _ratio(
            ex["first_try"], ex["contention_transmits"], 100.0
        ),
        "contention.host_ms_per_bit": _ratio(
            ex["contention_trial_s"], ex["contention_bits"], 1e3
        ),
        "trace.overhead_pct": _ratio(
            traced["wall_s"] - plain["wall_s"], plain["wall_s"], 100.0
        ),
        "trace.unattributed_pct": _ratio(
            traced["wall_s"] - sum(trace["parent_layers"].values()),
            traced["wall_s"],
            100.0,
        ),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }
