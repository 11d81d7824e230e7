"""Cross-process sweep telemetry: live streaming and aggregation.

A sweep through :class:`~repro.exec.TrialExecutor` is observable while
it runs: the parent (and, on a pool, every worker via a multiprocessing
queue) emits small structured **telemetry events** — plain dicts keyed
by ``ev`` — and a :class:`SweepTelemetry` aggregator folds them into a
:class:`~repro.obs.metrics.MetricsRegistry`, merges any per-trial SoC
metric snapshots via :func:`~repro.obs.metrics.merge_snapshots`, renders
live TTY progress, tails a ``--watch`` JSONL stream, and runs an online
CUSUM drift detector over per-trial BER.

The event schema (every event is JSON-able)::

    sweep.start   {trials, workers, label}
    trial.start   {index, token}
    trial.finish  {index, token, kind, wall_s, sim,
                   ber_percent?, bandwidth_kbps?, metrics?}
    trial.cached  {index, kind}
    prefix.build  {label, sim}
    sweep.finish  {wall_s, ok, dead, crash, timeout, cached,
                   sim, cache?, checkpoints?}

Zero-overhead-when-off contract: with no telemetry attached the
executor's fast paths cost one ``is None`` check, and workers never see
a queue.  Crucially the channel under test is **never** perturbed —
telemetry only reads data the trial already produced (result health,
census counters, pre-existing ``meta["metrics"]`` snapshots), so sweep
outputs stay bit-identical with streaming on or off at any worker
count.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import typing

from repro.obs.metrics import MetricsRegistry, merge_snapshots

Event = typing.Dict[str, object]

#: Environment knobs (see README "Monitoring a sweep").
ENV_ENABLE = "REPRO_TELEMETRY"
ENV_JSONL = "REPRO_TELEMETRY_JSONL"
ENV_PROM = "REPRO_TELEMETRY_PROM"

_TRUTHY = ("1", "true", "on", "yes")

# -- worker-side emitter ------------------------------------------------
#
# Pool workers get the parent's queue through the pool initializer
# (`install_worker_queue` is module-level, hence picklable).  With no
# queue installed `emit_from_worker` is one `is None` check, so the
# serial path and telemetry-off pools pay nothing.

_WORKER_QUEUE: typing.Optional[typing.Any] = None


def install_worker_queue(queue: typing.Optional[typing.Any]) -> None:
    """Install (or clear, with ``None``) this process's telemetry queue."""
    global _WORKER_QUEUE
    _WORKER_QUEUE = queue


def emit_from_worker(event: Event) -> None:
    """Forward one event to the parent; no-op without an installed queue."""
    queue = _WORKER_QUEUE
    if queue is None:
        return
    try:
        queue.put(event)
    except Exception:
        # A torn-down queue must never take the trial down with it.
        pass


# -- event builders -----------------------------------------------------


def _result_health(
    value: object,
) -> typing.Tuple[typing.Optional[float], typing.Optional[float]]:
    """Best-effort ``(ber_percent, bandwidth_kbps)`` from a trial result."""
    ber: typing.Optional[float] = None
    kbps: typing.Optional[float] = None
    try:
        rate = getattr(value, "error_rate", None)
        if rate is not None:
            ber = 100.0 * float(rate)  # type: ignore[arg-type]
        elif hasattr(value, "error_percent"):
            ber = float(value.error_percent)  # type: ignore[attr-defined]
        raw = getattr(value, "bandwidth_kbps", None)
        if raw is not None:
            kbps = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None, None
    return ber, kbps


def trial_start_event(token: int, index: int) -> Event:
    return {"ev": "trial.start", "token": token, "index": index}


def trial_finish_event(
    token: typing.Optional[int],
    index: typing.Optional[int],
    kind: str,
    value: object,
    sim: typing.Mapping[str, int],
    wall_s: float,
) -> Event:
    """One trial's terminal event; never embeds the result object itself."""
    event: Event = {
        "ev": "trial.finish",
        "token": token,
        "index": index,
        "kind": kind,
        "wall_s": round(wall_s, 6),
        "sim": dict(sim),
    }
    ber, kbps = _result_health(value)
    if ber is not None:
        event["ber_percent"] = round(ber, 6)
    if kbps is not None:
        event["bandwidth_kbps"] = round(kbps, 6)
    meta = getattr(value, "meta", None)
    if isinstance(meta, dict):
        metrics = meta.get("metrics")
        if isinstance(metrics, dict):
            # Present only when the trial already ran with obs enabled;
            # telemetry never turns obs on, it just forwards what exists.
            event["metrics"] = metrics
    return event


# -- aggregation --------------------------------------------------------


class Cusum:
    """Two-sided CUSUM drift detector over a stream of samples.

    ``update`` accumulates deviations beyond ``slack`` of ``target`` and
    alarms when either one-sided sum crosses ``threshold``.  Used online
    over per-trial BER: the target is learned from the first ``warmup``
    samples, so a mid-sweep shift (a channel going noisy) trips it while
    a uniformly-bad sweep is left to the baseline z-score check.
    """

    def __init__(
        self,
        slack: float = 2.0,
        threshold: float = 8.0,
        warmup: int = 4,
        target: typing.Optional[float] = None,
    ) -> None:
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.warmup = max(1, int(warmup))
        self.target = target
        self.pos = 0.0
        self.neg = 0.0
        self.alarmed = False
        self._warm: typing.List[float] = []

    def update(self, sample: float) -> bool:
        """Feed one sample; returns True on the update that first alarms."""
        if self.target is None:
            self._warm.append(float(sample))
            if len(self._warm) < self.warmup:
                return False
            self.target = sum(self._warm) / len(self._warm)
            return False
        delta = float(sample) - self.target
        self.pos = max(0.0, self.pos + delta - self.slack)
        self.neg = max(0.0, self.neg - delta - self.slack)
        if not self.alarmed and max(self.pos, self.neg) >= self.threshold:
            self.alarmed = True
            return True
        return False


class SweepTelemetry:
    """Thread-safe aggregator of telemetry events for one or more sweeps.

    ``handle(event)`` is the single entry point — the executor calls it
    for parent-side events and the queue drainer thread calls it for
    worker-side events, serialized by an internal lock.  State lands in
    three places: a private :class:`MetricsRegistry` (``sweep.*`` and
    ``exec.*`` counters/histograms), a merged SoC-metrics tree (from any
    ``trial.finish`` events carrying snapshots), and a warning list fed
    by the online BER CUSUM.
    """

    def __init__(
        self,
        label: str = "sweep",
        stream: typing.Optional[typing.TextIO] = None,
        progress: typing.Optional[typing.TextIO] = None,
        prom_path: typing.Union[str, os.PathLike, None] = None,
        cusum: typing.Optional[Cusum] = None,
    ) -> None:
        self.label = label
        self.stream = stream
        self.progress = progress
        self.prom_path = prom_path
        self.registry = MetricsRegistry()
        self.warnings: typing.List[str] = []
        self._cusum = cusum if cusum is not None else Cusum()
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self._total = 0
        self._done_indices: typing.Set[typing.Optional[int]] = set()
        self._soc_metrics: typing.Dict[str, object] = {}
        self.events_seen = 0

    # -- ingestion ------------------------------------------------------

    def handle(self, event: typing.Mapping[str, object]) -> None:
        """Fold one event into the aggregate (thread-safe)."""
        with self._lock:
            self._handle_locked(dict(event))

    def _handle_locked(self, event: Event) -> None:
        self.events_seen += 1
        ev = event.get("ev")
        reg = self.registry
        if ev == "sweep.start":
            self._total += int(typing.cast(int, event.get("trials", 0)))
            reg.counter("sweep.trials").inc(
                int(typing.cast(int, event.get("trials", 0)))
            )
            reg.counter("sweep.workers").set(
                int(typing.cast(int, event.get("workers", 0)))
            )
        elif ev == "trial.start":
            reg.counter("sweep.started").inc()
        elif ev == "trial.cached":
            self._done_indices.add(typing.cast(int, event.get("index")))
            reg.counter("sweep.cached").inc()
            reg.counter(f"sweep.{event.get('kind', 'ok')}").inc()
        elif ev == "trial.finish":
            self._done_indices.add(typing.cast(int, event.get("index")))
            reg.counter("sweep.attempts").inc()
            reg.counter(f"sweep.{event.get('kind', 'ok')}").inc()
            wall = event.get("wall_s")
            if isinstance(wall, (int, float)):
                reg.histogram("sweep.trial_wall_s").add(float(wall))
            sim = event.get("sim")
            if isinstance(sim, dict):
                reg.counter("sweep.events_executed").inc(
                    int(sim.get("events_executed", 0))
                )
                reg.counter("sweep.engines_created").inc(
                    int(sim.get("engines_created", 0))
                )
            ber = event.get("ber_percent")
            if isinstance(ber, (int, float)):
                reg.histogram("sweep.ber_percent").add(float(ber))
                if self._cusum.update(float(ber)):
                    self.warnings.append(
                        f"CUSUM drift: per-trial BER shifted from "
                        f"{self._cusum.target:.2f}% baseline "
                        f"(trial index={event.get('index')}, "
                        f"ber={float(ber):.2f}%)"
                    )
                    reg.counter("sweep.drift_alarms").inc()
            kbps = event.get("bandwidth_kbps")
            if isinstance(kbps, (int, float)):
                reg.histogram("sweep.bandwidth_kbps").add(float(kbps))
            metrics = event.get("metrics")
            if isinstance(metrics, dict):
                self._soc_metrics = merge_snapshots(
                    [self._soc_metrics, metrics]
                )
        elif ev == "prefix.build":
            reg.counter("sweep.prefixes_built").inc()
        elif ev == "sweep.finish":
            for prefix, payload in (
                ("exec.cache", event.get("cache")),
                ("exec.checkpoint", event.get("checkpoints")),
            ):
                if isinstance(payload, dict):
                    for key, value in payload.items():
                        if isinstance(value, (int, float)):
                            reg.counter(f"{prefix}.{key}").inc(value)
        if self.stream is not None:
            line = json.dumps(
                {"t": round(time.perf_counter() - self._t0, 6), **event},
                sort_keys=True,
                default=str,
            )
            try:
                self.stream.write(line + "\n")
                self.stream.flush()
            except ValueError:
                self.stream = None  # closed underneath us
        if self.progress is not None:
            self._render_progress(ev == "sweep.finish")

    # -- presentation ---------------------------------------------------

    @property
    def done(self) -> int:
        return len(self._done_indices)

    def _counts(self) -> typing.Dict[str, float]:
        return self.registry.counters()

    def _render_progress(self, final: bool) -> None:
        counts = self._counts()
        parts = [f"[{self.label}] {self.done}/{self._total}"]
        for kind in ("ok", "dead", "crash", "timeout", "model"):
            n = counts.get(f"sweep.{kind}", 0)
            if n:
                parts.append(f"{kind}={int(n)}")
        cached = counts.get("sweep.cached", 0)
        if cached:
            parts.append(f"cached={int(cached)}")
        if self.warnings:
            parts.append(f"drift!={len(self.warnings)}")
        line = " ".join(parts)
        out = self.progress
        if out is None:
            return
        try:
            if out.isatty():
                out.write("\r" + line.ljust(78))
                if final:
                    out.write("\n")
                out.flush()
            elif final:
                out.write(line + "\n")
                out.flush()
        except ValueError:
            self.progress = None

    def snapshot(self) -> typing.Dict[str, object]:
        """Nested dict of everything aggregated so far (JSON-able)."""
        with self._lock:
            doc: typing.Dict[str, object] = self.registry.as_dict()
            if self._soc_metrics:
                doc["soc"] = merge_snapshots([self._soc_metrics])
            if self.warnings:
                doc["warnings"] = list(self.warnings)
            return doc

    def summary(self) -> str:
        counts = self._counts()
        kinds = ", ".join(
            f"{kind}={int(counts.get(f'sweep.{kind}', 0))}"
            for kind in ("ok", "dead", "crash", "timeout", "model")
            if counts.get(f"sweep.{kind}", 0)
        )
        text = (
            f"telemetry[{self.label}]: {self.events_seen} events, "
            f"{self.done}/{self._total} trials ({kinds or 'no outcomes'})"
        )
        if self.warnings:
            text += f", {len(self.warnings)} drift warning(s)"
        return text

    def flush(self) -> None:
        """Flush the watch stream and (re)write the Prometheus file."""
        if self.stream is not None:
            try:
                self.stream.flush()
            except ValueError:
                self.stream = None
        if self.prom_path:
            from repro.obs.prometheus import prometheus_text

            text = prometheus_text(self.snapshot())
            with open(os.fspath(self.prom_path), "w", encoding="utf-8") as fileobj:
                fileobj.write(text)


def env_enabled(environ: typing.Optional[typing.Mapping[str, str]] = None) -> bool:
    env = os.environ if environ is None else environ
    return env.get(ENV_ENABLE, "").strip().lower() in _TRUTHY


def telemetry_from_env(
    label: str = "sweep",
    environ: typing.Optional[typing.Mapping[str, str]] = None,
) -> typing.Optional[SweepTelemetry]:
    """Build a :class:`SweepTelemetry` from ``REPRO_TELEMETRY*`` knobs.

    Returns ``None`` unless ``REPRO_TELEMETRY`` is truthy — the executor
    calls this once at construction, so the off path costs one env read.
    """
    env = os.environ if environ is None else environ
    if not env_enabled(env):
        return None
    stream = None
    jsonl = env.get(ENV_JSONL, "").strip()
    if jsonl:
        stream = open(jsonl, "a", encoding="utf-8")
    return SweepTelemetry(
        label=label,
        stream=stream,
        progress=sys.stderr,
        prom_path=env.get(ENV_PROM, "").strip() or None,
    )


# -- shared bench footer assembly ---------------------------------------


def bench_run_record(
    workers: int,
    wall_s: float,
    census: typing.Optional[typing.Any] = None,
    sim: typing.Optional[typing.Mapping[str, int]] = None,
    cache: typing.Optional[typing.Any] = None,
    checkpoints: typing.Optional[typing.Any] = None,
    channels: typing.Optional[typing.Mapping[str, object]] = None,
    extra: typing.Optional[typing.Mapping[str, object]] = None,
    engine: typing.Optional[str] = None,
    batch_width: typing.Optional[int] = None,
    batch_width_source: typing.Optional[str] = None,
) -> typing.Dict[str, object]:
    """One benchmark run record, in the ``BENCH_<name>.json`` shape.

    The single assembly point for the per-benchmark JSON footers that
    used to be hand-rolled in each ``bench_*.py``: engine census (or a
    raw executor ``sim`` dict), cache/checkpoint counters (anything with
    ``as_dict()``, or a plain mapping) and per-channel health metrics.
    The run ledger reuses the same records, so provenance and bench
    artifacts can never drift apart.

    ``engine`` names the execution tier that produced the numbers
    (``"serial"`` / ``"batched"``; compare like with like when reading
    the ledger) and ``batch_width`` the lockstep lane count in force —
    both optional so non-sweep benches stay unchanged.
    ``batch_width_source`` records where that width came from —
    ``"auto"`` (footprint tuner), ``"env"`` (``REPRO_BATCH_WIDTH``) or
    ``"serial"`` (batch tier off) — so drift detection can tell a width
    change from a true perf regression.
    """
    engines = events = 0
    if census is not None:
        engines = int(census.engines_created)
        events = int(census.events_executed)
    elif sim is not None:
        engines = int(sim.get("engines_created", 0))
        events = int(sim.get("events_executed", 0))
    record: typing.Dict[str, object] = {
        "workers": int(workers),
        "wall_s": round(float(wall_s), 4),
        "engines": engines,
        "events_executed": events,
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
    }
    if engine is not None:
        record["engine"] = str(engine)
    if batch_width is not None:
        record["batch_width"] = int(batch_width)
    if batch_width_source is not None:
        record["batch_width_source"] = str(batch_width_source)
    for key, stats in (("cache", cache), ("checkpoints", checkpoints)):
        if stats is None:
            continue
        if hasattr(stats, "as_dict"):
            record[key] = stats.as_dict()
        else:
            record[key] = dict(typing.cast(typing.Mapping, stats))
    if channels:
        record["channels"] = {
            name: dict(typing.cast(typing.Mapping, value))
            if isinstance(value, typing.Mapping)
            else value
            for name, value in channels.items()
        }
    if extra:
        record.update(extra)
    return record
