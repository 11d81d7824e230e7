"""Parallel trial execution with deterministic results.

:class:`TrialExecutor` fans a list of independent :class:`TrialSpec`\\ s —
``(fn, params, seed)`` triples — across a ``multiprocessing`` worker pool.
The contract:

* **Determinism.**  Outcomes are keyed by submission index and every seed
  is fixed before dispatch, so the aggregate result is bit-identical
  whether trials run serially (``workers=0``, the default), on 2 workers
  or on 64, and regardless of completion order.
* **Caching.**  With a :class:`~repro.exec.cache.ResultCache` attached,
  trials whose ``(config hash, code fingerprint, seed)`` key is already
  on disk are not re-run; only new points compute.
* **Degradation.**  A trial that crashes or wedges a worker becomes one
  recorded :class:`TrialOutcome` failure (after ``retries`` fresh
  attempts), never a hung or aborted sweep.  Dead channel points
  (:class:`~repro.errors.ChannelProtocolError`) are recorded without
  retry: the simulation is deterministic, so a dead point stays dead.
* **Observability.**  Every trial runs under an armed
  :class:`~repro.obs.EngineCensus`; the per-worker snapshots merge into
  one ``report.sim`` total (engines created, events executed, furthest
  simulated clock).  Parallel runs always carry a telemetry queue: each
  worker posts its per-trial census back, so even trials whose pool
  handle was abandoned during timeout/retry degradation credit their
  completed simulation work.  Attach a
  :class:`~repro.obs.telemetry.SweepTelemetry` (or set
  ``REPRO_TELEMETRY=1``) and the same queue streams live per-trial
  BER/bandwidth/wall-time events to the parent — without perturbing the
  trials, so results stay bit-identical with streaming on or off.

Trial functions must be module-level callables and their params/results
picklable when ``workers > 0``; the serial path has no such restriction,
which is why it is the default for tests.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
import traceback
import typing

import tempfile

# Imported lazily inside methods: repro.checkpoint imports this module's
# package for stable_digest, so a top-level import would be circular.
if typing.TYPE_CHECKING:
    from repro.checkpoint import CheckpointStore
from repro.errors import ChannelProtocolError
from repro.exec.cache import CacheStats, ResultCache
from repro.obs import telemetry as _telemetry
from repro.obs.census import EngineCensus, note_external_sim
from repro.sim.batch import gate as _batch_gate

if typing.TYPE_CHECKING:
    from repro.obs.telemetry import SweepTelemetry

Params = typing.Dict[str, object]
TrialFn = typing.Callable[[Params, int], object]

#: Outcome kinds, from best to worst.
OK, DEAD, CRASH, TIMEOUT = "ok", "dead", "crash", "timeout"


@dataclasses.dataclass(frozen=True)
class PrefixSpec:
    """A shared warm prefix several trials fork from.

    ``fn(dict(params), seed)`` must return a JSON-able checkpoint doc
    (e.g. :func:`repro.core.contention_channel.fork.prepare_doc` output).
    Trials carrying the same (equal) prefix spec form one group: the
    executor runs the prefix **once** per group and hands the doc to each
    trial — inline for serial runs, via a
    :class:`~repro.checkpoint.CheckpointStore` blob for parallel runs.
    With ``REPRO_CHECKPOINT=0`` prefixes are ignored and every trial
    cold-starts; either way the outcomes are bit-identical.
    """

    fn: TrialFn
    params: Params
    seed: int
    label: str = "prefix"

    def identity(self) -> object:
        """The value that defines prefix-group membership."""
        return (self.fn, tuple(sorted(self.params.items())), self.seed, self.label)


@dataclasses.dataclass(frozen=True)
class TrialSpec:
    """One independent unit of work: ``fn(dict(params), seed)``."""

    fn: TrialFn
    params: Params
    seed: int
    #: Free-form grouping label (e.g. the sweep point the trial belongs
    #: to); carried through to the outcome untouched.
    tag: object = None
    #: Optional shared warm prefix (see :class:`PrefixSpec`).  The trial
    #: function receives the checkpoint doc through the ``_ckpt_*`` keys
    #: :func:`repro.checkpoint.resolve_state` reads; result-cache keys are
    #: computed on the *bare* params, so warm and cold runs address the
    #: same cache entries (their results are bit-identical).
    prefix: typing.Optional[PrefixSpec] = None


@dataclasses.dataclass
class TrialOutcome:
    """What happened to one trial, in submission order."""

    index: int
    kind: str  # OK / DEAD / CRASH / TIMEOUT
    result: object = None
    error: typing.Optional[str] = None
    from_cache: bool = False
    attempts: int = 1
    tag: object = None

    @property
    def ok(self) -> bool:
        return self.kind == OK


@dataclasses.dataclass
class ExecutionReport:
    """Everything one :meth:`TrialExecutor.run` produced."""

    outcomes: typing.List[TrialOutcome]
    workers: int
    wall_s: float
    cache: CacheStats
    #: Merged per-worker simulation census: engines created, events
    #: executed (summed) and the furthest simulated clock (maxed).
    sim: typing.Dict[str, int]

    def results(self) -> typing.List[object]:
        """Successful results, in submission order."""
        return [o.result for o in self.outcomes if o.kind == OK]

    @property
    def failures(self) -> typing.List[TrialOutcome]:
        return [o for o in self.outcomes if o.kind != OK]

    @property
    def events_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.sim.get("events_executed", 0) / self.wall_s

    def summary(self) -> str:
        ok = sum(1 for o in self.outcomes if o.kind == OK)
        parts = [
            (
                f"{ok}/{len(self.outcomes)} trials ok "
                f"(workers={self.workers}, {self.wall_s:.2f}s wall)"
            ),
            self.cache.summary(),
            (
                f"sim: engines={self.sim.get('engines_created', 0)} "
                f"events={self.sim.get('events_executed', 0)} "
                f"({self.events_per_sec:,.0f} events/sec of wall time)"
            ),
        ]
        kinds: typing.Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.kind != OK:
                kinds[outcome.kind] = kinds.get(outcome.kind, 0) + 1
        if kinds:
            detail = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
            parts.append(f"failures: {detail}")
        return "\n".join(parts)


def _empty_sim() -> typing.Dict[str, int]:
    return {"engines_created": 0, "events_executed": 0, "final_now_fs": 0}


def _census_dict(census: EngineCensus) -> typing.Dict[str, int]:
    return {
        "engines_created": census.engines_created,
        "events_executed": census.events_executed,
        "final_now_fs": census.final_now_fs,
    }


def _merge_sim(total: typing.Dict[str, int], part: typing.Mapping[str, int]) -> None:
    total["engines_created"] += part.get("engines_created", 0)
    total["events_executed"] += part.get("events_executed", 0)
    total["final_now_fs"] = max(total["final_now_fs"], part.get("final_now_fs", 0))


def run_one_trial(
    payload: typing.Sequence[object],
) -> typing.Tuple[str, object, typing.Dict[str, int]]:
    """Execute one trial under an engine census.

    Module-level so worker processes can unpickle it.  ``payload`` is
    ``(fn, params, seed)`` — parallel dispatch appends a unique
    ``token`` and the submission ``index``, which key the telemetry
    events the worker posts back on its installed queue (trial start,
    then a finish event carrying the census sim and result health).
    Returns ``(kind, result_or_message, sim_stats)``; exceptions other
    than :class:`ChannelProtocolError` are folded into a ``CRASH``
    record so a worker never dies on an application error.
    """
    fn = typing.cast(TrialFn, payload[0])
    params = typing.cast(Params, payload[1])
    seed = typing.cast(int, payload[2])
    token = typing.cast(typing.Optional[int], payload[3]) if len(payload) > 3 else None
    index = typing.cast(typing.Optional[int], payload[4]) if len(payload) > 4 else None
    if token is not None:
        _telemetry.emit_from_worker(
            _telemetry.trial_start_event(token, typing.cast(int, index))
        )
        wall_start = time.perf_counter()
    with EngineCensus() as census:
        try:
            result = fn(dict(params), seed)
            kind, value = OK, result
        except ChannelProtocolError as exc:
            kind, value = DEAD, str(exc)
        except Exception:
            kind, value = CRASH, traceback.format_exc(limit=20)
    sim = {
        "engines_created": census.engines_created,
        "events_executed": census.events_executed,
        "final_now_fs": census.final_now_fs,
    }
    if token is not None:
        _telemetry.emit_from_worker(
            _telemetry.trial_finish_event(
                token, index, kind, value, sim,
                time.perf_counter() - wall_start,
            )
        )
    return kind, value, sim


def default_workers() -> int:
    """A sensible worker count for "use the whole machine" callers."""
    return max(1, os.cpu_count() or 1)


def _shutdown_pool(pool: typing.Any, aborted: bool) -> None:
    """Retire a pool: idle workers exit cleanly, only an abort kills.

    ``terminate()`` SIGTERMs every worker, and one killed while writing
    to the telemetry queue keeps the queue's write lock for good — so a
    round whose handles all returned drains with ``close()``/``join()``
    instead, and its workers flush the queue on their way out.
    """
    if aborted:
        pool.terminate()
    else:
        pool.close()
    pool.join()


_DRAIN_STOP = {"ev": "__drain_stop__"}


class _TelemetryDrainer(threading.Thread):
    """Drains the workers' telemetry queue in the parent.

    Two jobs: forward every event to the attached
    :class:`~repro.obs.telemetry.SweepTelemetry` (if any), and keep the
    per-dispatch-token census sims so the executor can credit trials
    whose pool handle was abandoned (timeout/retry degradation) but
    whose worker did finish the simulation — the handle path would
    silently drop that work (see ``orphan_sims``).
    """

    def __init__(
        self,
        queue: typing.Any,
        telemetry: typing.Optional["SweepTelemetry"],
    ) -> None:
        super().__init__(name="repro-telemetry-drainer", daemon=True)
        self._queue = queue
        self._telemetry = telemetry
        self._sims: typing.Dict[int, typing.Dict[str, int]] = {}
        self._lock = threading.Lock()

    def run(self) -> None:
        while True:
            try:
                event = self._queue.get()
            except (EOFError, OSError):  # queue torn down under us
                return
            except Exception:  # torn pickle from a terminated worker
                continue
            if not isinstance(event, dict):
                continue
            if event.get("ev") == _DRAIN_STOP["ev"]:
                return
            if event.get("ev") == "trial.finish":
                token = event.get("token")
                trial_sim = event.get("sim")
                if isinstance(token, int) and isinstance(trial_sim, dict):
                    with self._lock:
                        self._sims[token] = trial_sim
            if self._telemetry is not None:
                self._telemetry.handle(event)

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self._queue.put(dict(_DRAIN_STOP))
        except Exception:
            pass
        self.join(timeout=timeout)

    def orphan_sims(
        self, claimed: typing.AbstractSet[int]
    ) -> typing.List[typing.Tuple[int, typing.Dict[str, int]]]:
        """Census sims whose dispatch token the handle path never merged."""
        with self._lock:
            return [
                (token, trial_sim)
                for token, trial_sim in sorted(self._sims.items())
                if token not in claimed
            ]


class TrialExecutor:
    """Runs trial specs serially or across a process pool (see module doc)."""

    def __init__(
        self,
        workers: int = 0,
        cache: typing.Union[ResultCache, str, os.PathLike, None] = None,
        trial_timeout_s: float = 300.0,
        retries: int = 1,
        mp_context: typing.Optional[str] = None,
        checkpoints: typing.Union[CheckpointStore, str, os.PathLike, None] = None,
        telemetry: typing.Union["SweepTelemetry", bool, None] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if trial_timeout_s <= 0:
            raise ValueError("trial_timeout_s must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.trial_timeout_s = trial_timeout_s
        self.retries = retries
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        if mp_context is None:
            # fork is the cheap, closure-tolerant default where it exists.
            mp_context = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self._mp_context = mp_context
        from repro.checkpoint import CheckpointStore

        if checkpoints is None or isinstance(checkpoints, CheckpointStore):
            self._checkpoints = checkpoints
        else:
            self._checkpoints = CheckpointStore(checkpoints)
        # None = honour the REPRO_TELEMETRY env knobs; False = force off;
        # True = aggregate in-process with no streams attached.
        if telemetry is None:
            self.telemetry = _telemetry.telemetry_from_env()
        elif telemetry is False:
            self.telemetry = None
        elif telemetry is True:
            self.telemetry = _telemetry.SweepTelemetry()
        else:
            self.telemetry = telemetry
        #: Batch-tier width decisions from the most recent run — one
        #: record per dispatched lockstep chunk (see ``plan_groups``).
        self.last_batch_plans: typing.List[typing.Dict[str, object]] = []

    def _checkpoint_store(self) -> CheckpointStore:
        """The blob store parallel prefix groups ship their docs through."""
        from repro.checkpoint import CheckpointStore

        if self._checkpoints is None:
            self._checkpoints = CheckpointStore(
                tempfile.mkdtemp(prefix="repro-ckpt-")
            )
        return self._checkpoints

    # -- shared warm prefixes -------------------------------------------

    def _prepare_prefixes(
        self,
        specs: typing.Sequence[TrialSpec],
        pending: typing.Sequence[int],
        sim: typing.Dict[str, int],
    ) -> typing.Dict[int, Params]:
        """Run each distinct prefix once; map trial index -> params+doc.

        Serial runs get the doc inline (``_ckpt_state``); parallel runs
        get a store root + key (``_ckpt_store``/``_ckpt_key``) because the
        doc must cross a process boundary.  A prefix that fails to build
        is dropped silently — its trials simply cold-start, which is
        always correct.
        """
        from repro.checkpoint import gate as _checkpoint_gate

        if not _checkpoint_gate.enabled():
            return {}
        groups: typing.Dict[object, typing.List[int]] = {}
        for index in pending:
            prefix = specs[index].prefix
            if prefix is not None:
                groups.setdefault(prefix.identity(), []).append(index)
        effective: typing.Dict[int, Params] = {}
        for indices in groups.values():
            prefix = specs[indices[0]].prefix
            assert prefix is not None
            inject: typing.Optional[Params] = None
            if self.workers == 0:
                try:
                    with EngineCensus() as census:
                        doc = prefix.fn(dict(prefix.params), prefix.seed)
                except Exception:
                    continue
                _merge_sim(sim, _census_dict(census))
                self._emit_prefix_event(prefix.label, census)
                inject = {"_ckpt_state": doc, "_ckpt_label": prefix.label}
            else:
                store = self._checkpoint_store()
                key = store.key_for(
                    (prefix.fn, dict(prefix.params)), prefix.label, prefix.seed
                )
                if store.get(key) is None:
                    try:
                        with EngineCensus() as census:
                            doc = prefix.fn(dict(prefix.params), prefix.seed)
                    except Exception:
                        continue
                    _merge_sim(sim, _census_dict(census))
                    self._emit_prefix_event(prefix.label, census)
                    store.put(key, typing.cast(typing.Dict[str, object], doc))
                inject = {
                    "_ckpt_store": str(store.root),
                    "_ckpt_key": key,
                    "_ckpt_label": prefix.label,
                }
            for index in indices:
                effective[index] = {**specs[index].params, **inject}
        return effective

    def _emit_prefix_event(self, label: str, census: EngineCensus) -> None:
        if self.telemetry is not None:
            self.telemetry.handle({
                "ev": "prefix.build", "label": label,
                "sim": _census_dict(census),
            })

    # -- cache plumbing -------------------------------------------------

    def _cache_lookup(
        self, spec: TrialSpec, index: int
    ) -> typing.Optional[TrialOutcome]:
        if self.cache is None:
            return None
        key = self.cache.key_for(spec.fn, spec.params, spec.seed)
        entry = self.cache.get(key)
        if entry is None:
            return None
        kind, payload = entry
        if kind == OK:
            return TrialOutcome(
                index=index, kind=OK, result=payload, from_cache=True,
                attempts=0, tag=spec.tag,
            )
        return TrialOutcome(
            index=index, kind=DEAD, error=str(payload), from_cache=True,
            attempts=0, tag=spec.tag,
        )

    def _cache_store(self, spec: TrialSpec, outcome: TrialOutcome) -> None:
        # Only deterministic outcomes are cacheable; a crash or timeout
        # may be environmental (OOM kill, wedged worker) and must re-run.
        if self.cache is None or outcome.kind not in (OK, DEAD):
            return
        key = self.cache.key_for(spec.fn, spec.params, spec.seed)
        payload = outcome.result if outcome.kind == OK else outcome.error
        self.cache.put(key, outcome.kind, payload)

    # -- execution ------------------------------------------------------

    def run(self, specs: typing.Sequence[TrialSpec]) -> ExecutionReport:
        """Execute every spec; outcomes come back in submission order."""
        start = time.perf_counter()
        if self.cache is not None:
            self.cache.stats = CacheStats()
        tel = self.telemetry
        if tel is not None:
            tel.handle({
                "ev": "sweep.start", "trials": len(specs),
                "workers": self.workers, "label": tel.label,
            })
        sim = _empty_sim()
        outcomes: typing.Dict[int, TrialOutcome] = {}
        pending: typing.List[int] = []
        for index, spec in enumerate(specs):
            hit = self._cache_lookup(spec, index)
            if hit is not None:
                outcomes[index] = hit
                if tel is not None:
                    tel.handle({
                        "ev": "trial.cached", "index": index, "kind": hit.kind,
                    })
            else:
                pending.append(index)

        if pending:
            effective = self._prepare_prefixes(specs, pending, sim)
            if _batch_gate.enabled():
                pending = self._run_batched(
                    specs, pending, outcomes, sim, effective
                )
            if pending:
                if self.workers == 0:
                    self._run_serial(specs, pending, outcomes, sim, effective)
                else:
                    self._run_parallel(specs, pending, outcomes, sim, effective)

        ordered = [outcomes[i] for i in range(len(specs))]
        report = ExecutionReport(
            outcomes=ordered,
            workers=self.workers,
            wall_s=time.perf_counter() - start,
            cache=self.cache.stats if self.cache is not None else CacheStats(),
            sim=sim,
        )
        if tel is not None:
            finish: typing.Dict[str, object] = {
                "ev": "sweep.finish",
                "wall_s": round(report.wall_s, 6),
                "cached": sum(1 for o in ordered if o.from_cache),
                "sim": dict(sim),
            }
            for kind in (OK, DEAD, CRASH, TIMEOUT):
                finish[kind] = sum(1 for o in ordered if o.kind == kind)
            if self.cache is not None:
                finish["cache"] = self.cache.stats.as_dict()
            if self._checkpoints is not None:
                finish["checkpoints"] = self._checkpoints.stats.as_dict()
            tel.handle(finish)
            tel.flush()
        return report

    def _record(
        self,
        specs: typing.Sequence[TrialSpec],
        outcomes: typing.Dict[int, TrialOutcome],
        index: int,
        kind: str,
        value: object,
        attempts: int,
    ) -> None:
        spec = specs[index]
        if kind == OK:
            outcome = TrialOutcome(
                index=index, kind=OK, result=value, attempts=attempts,
                tag=spec.tag,
            )
        else:
            outcome = TrialOutcome(
                index=index, kind=kind, error=str(value), attempts=attempts,
                tag=spec.tag,
            )
        outcomes[index] = outcome
        self._cache_store(spec, outcome)

    def _run_batched(
        self,
        specs: typing.Sequence[TrialSpec],
        pending: typing.Sequence[int],
        outcomes: typing.Dict[int, TrialOutcome],
        sim: typing.Dict[str, int],
        effective: typing.Dict[int, Params],
    ) -> typing.List[int]:
        """Lockstep batch tier: returns the indices it did *not* handle.

        Trials whose function has a registered lockstep kernel are
        grouped by shape digest and advanced N-at-a-time over numpy
        arrays (:mod:`repro.sim.batch`); everything else — plus any
        group that fails wholesale or any trial whose batched outcome
        was a retryable failure — falls through to the ordinary
        serial/parallel path.  Parallel executors ship whole groups to
        pool workers; lanes a kernel ejects re-run serially inside the
        group task either way, so batching never changes an outcome,
        only its cost.
        """
        from repro.sim.batch.engine import plan_groups, run_batch_group

        plans: typing.List[typing.Dict[str, object]] = []
        groups, leftover = plan_groups(specs, pending, effective, plans)
        self.last_batch_plans = plans
        if not groups:
            return leftover
        tel = self.telemetry
        payloads = [
            (
                specs[group[0]].fn,
                [
                    (i, effective.get(i, specs[i].params), specs[i].seed)
                    for i in group
                ],
            )
            for group in groups
        ]

        def apply(entries, value) -> None:
            results, group_sim = value
            _merge_sim(sim, group_sim)
            for index, kind, result, trial_sim, wall_s in results:
                if kind in (CRASH, TIMEOUT):
                    # Keep the normal path's retry/degradation semantics.
                    leftover.append(index)
                    continue
                if tel is not None:
                    tel.handle(_telemetry.trial_start_event(index, index))
                    tel.handle(_telemetry.trial_finish_event(
                        index, index, kind, result, trial_sim, wall_s,
                    ))
                self._record(specs, outcomes, index, kind, result, attempts=1)

        if self.workers == 0:
            for payload in payloads:
                try:
                    value = run_batch_group(payload)
                except Exception:
                    leftover.extend(entry[0] for entry in payload[1])
                    continue
                apply(payload[1], value)
        else:
            context = (
                multiprocessing.get_context(self._mp_context)
                if self._mp_context
                else multiprocessing.get_context()
            )
            external = _empty_sim()
            pool = context.Pool(processes=min(self.workers, len(payloads)))
            aborted = False
            try:
                handles = [
                    (payload, pool.apply_async(run_batch_group, (payload,)))
                    for payload in payloads
                ]
                for payload, handle in handles:
                    try:
                        value = handle.get(
                            self.trial_timeout_s * max(1, len(payload[1]))
                        )
                    except Exception:
                        aborted = True
                        leftover.extend(entry[0] for entry in payload[1])
                        continue
                    _merge_sim(external, value[1])
                    apply(payload[1], value)
            except BaseException:
                aborted = True
                raise
            finally:
                _shutdown_pool(pool, aborted)
            # Worker-side engines/kernels never announce to this process's
            # censuses; publish their merged census once, like _run_parallel.
            note_external_sim(external)
        leftover.sort()
        return leftover

    def _run_serial(
        self,
        specs: typing.Sequence[TrialSpec],
        pending: typing.Sequence[int],
        outcomes: typing.Dict[int, TrialOutcome],
        sim: typing.Dict[str, int],
        effective: typing.Dict[int, Params],
    ) -> None:
        tel = self.telemetry
        for index in pending:
            spec = specs[index]
            params = effective.get(index, spec.params)
            if tel is not None:
                tel.handle(_telemetry.trial_start_event(index, index))
            trial_start = time.perf_counter()
            kind, value, trial_sim = run_one_trial((spec.fn, params, spec.seed))
            _merge_sim(sim, trial_sim)
            if tel is not None:
                tel.handle(_telemetry.trial_finish_event(
                    index, index, kind, value, trial_sim,
                    time.perf_counter() - trial_start,
                ))
            self._record(specs, outcomes, index, kind, value, attempts=1)

    def _run_parallel(
        self,
        specs: typing.Sequence[TrialSpec],
        pending: typing.Sequence[int],
        outcomes: typing.Dict[int, TrialOutcome],
        sim: typing.Dict[str, int],
        effective: typing.Dict[int, Params],
    ) -> None:
        context = (
            multiprocessing.get_context(self._mp_context)
            if self._mp_context
            else multiprocessing.get_context()
        )
        # Workers' engines never announce to this process's censuses, so
        # collect their merged census and publish it once at the end.
        worker_sim = _empty_sim()
        # Workers post telemetry (and their per-trial census) back on
        # this queue; the drainer runs regardless of telemetry so census
        # totals include trials whose pool handle was abandoned below.
        queue = context.Queue()
        drainer = _TelemetryDrainer(queue, self.telemetry)
        drainer.start()
        #: dispatch tokens whose census the handle path already merged.
        claimed: typing.Set[int] = set()
        next_token = 0
        remaining = list(pending)
        attempts = {index: 0 for index in remaining}
        tel = self.telemetry
        #: Whether any round killed its workers (see ``_shutdown_pool``).
        killed = False
        try:
            while remaining:
                pool = context.Pool(
                    processes=min(self.workers, len(remaining)),
                    initializer=_telemetry.install_worker_queue,
                    initargs=(queue,),
                )
                next_round: typing.List[int] = []
                aborted = False
                try:
                    handles = []
                    for index in remaining:
                        token = next_token
                        next_token += 1
                        handles.append((
                            index,
                            token,
                            pool.apply_async(
                                run_one_trial,
                                ((
                                    specs[index].fn,
                                    effective.get(index, specs[index].params),
                                    specs[index].seed,
                                    token,
                                    index,
                                ),),
                            ),
                        ))
                    for index, token, handle in handles:
                        attempts[index] += 1
                        if aborted:
                            # A wedged worker poisoned this pool.  Harvest
                            # whatever already finished; everything else goes
                            # to a fresh pool (without burning an attempt).
                            if not handle.ready():
                                attempts[index] -= 1
                                next_round.append(index)
                                continue
                        try:
                            kind, value, trial_sim = handle.get(
                                None if aborted else self.trial_timeout_s
                            )
                        except multiprocessing.TimeoutError:
                            aborted = True
                            if attempts[index] <= self.retries:
                                next_round.append(index)
                            else:
                                self._record(
                                    specs, outcomes, index, TIMEOUT,
                                    f"trial exceeded {self.trial_timeout_s}s "
                                    f"(worker wedged or overloaded)",
                                    attempts[index],
                                )
                                if tel is not None:
                                    tel.handle({
                                        "ev": "trial.finish", "token": token,
                                        "index": index, "kind": TIMEOUT,
                                    })
                            continue
                        except Exception as exc:
                            # The worker process died before returning (hard
                            # crash, OOM kill): retry on a fresh pool.
                            aborted = True
                            if attempts[index] <= self.retries:
                                next_round.append(index)
                            else:
                                self._record(
                                    specs, outcomes, index, CRASH,
                                    f"worker died: {exc!r}", attempts[index],
                                )
                                if tel is not None:
                                    tel.handle({
                                        "ev": "trial.finish", "token": token,
                                        "index": index, "kind": CRASH,
                                    })
                            continue
                        claimed.add(token)
                        _merge_sim(sim, trial_sim)
                        _merge_sim(worker_sim, trial_sim)
                        if kind == CRASH and attempts[index] <= self.retries:
                            next_round.append(index)
                        else:
                            self._record(
                                specs, outcomes, index, kind, value,
                                attempts[index],
                            )
                except BaseException:
                    aborted = True
                    raise
                finally:
                    killed = killed or aborted
                    _shutdown_pool(pool, aborted)
                remaining = next_round
        finally:
            # Every pool is joined, so the stop sentinel queues behind all
            # worker events.  A killed worker may still hold the queue's
            # write lock: then the parent's feeder thread can never flush,
            # and joining it at interpreter exit would hang.
            if killed:
                queue.cancel_join_thread()
            drainer.stop()
        # Census-crediting fix: trials that finished in a worker but whose
        # handle was abandoned (harvest raced a pool abort) still reported
        # their census on the queue — fold that work in so events/sec
        # stays honest.  Trials killed mid-run are gone for good.
        for _token, trial_sim in drainer.orphan_sims(claimed):
            _merge_sim(sim, trial_sim)
            _merge_sim(worker_sim, trial_sim)
        note_external_sim(worker_sim)
