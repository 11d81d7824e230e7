"""Telemetry, run ledger and drift detection (repro.obs.telemetry etc.).

Covers the cross-process telemetry pipeline end to end: event builders,
the SweepTelemetry aggregator (including the online BER CUSUM), the
merge_snapshots degenerate cases the worker path relies on, the
determinism contract (sweep outcomes bit-identical with telemetry on or
off at any worker count), the worker-queue census crediting, the
append-only run ledger + its CLI, channel-health drift warnings, the
Prometheus exporter and the shared bench footer assembly.
"""

import io
import json
import pickle
import queue as queue_module

import pytest

from repro.exec import OK, TIMEOUT, TrialExecutor, TrialSpec
from repro.exec.demo import synthetic_trial
from repro.exec.executor import _TelemetryDrainer, run_one_trial
from repro.errors import ObservabilityError
from repro.obs.drift import (
    channel_drift_warnings,
    channels_of,
    committed_channels,
    zscore,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    append_record,
    default_ledger_path,
    format_record,
    make_record,
    read_records,
    validate_record,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.prometheus import prometheus_text, sanitize_metric_name
from repro.obs.telemetry import (
    Cusum,
    SweepTelemetry,
    bench_run_record,
    emit_from_worker,
    install_worker_queue,
    telemetry_from_env,
    trial_finish_event,
    trial_start_event,
)


def _specs(n=4, noise=0.1):
    return [
        TrialSpec(fn=synthetic_trial, params={"n_bits": 24, "noise": noise},
                  seed=seed)
        for seed in range(1, n + 1)
    ]


def _outcome_fingerprint(report):
    # One pickle per outcome (a joint dump would compare object identity).
    return [
        pickle.dumps((o.kind, o.result, o.error)) for o in report.outcomes
    ]


# ----------------------------------------------------------------------
# merge_snapshots degenerate inputs


def test_merge_snapshots_empty_sequence():
    assert merge_snapshots([]) == {}


def test_merge_snapshots_single_snapshot_is_identity():
    snap = {"a": {"b": 3}, "hist": {"count": 1, "mean": 5.0}}
    assert merge_snapshots([snap]) == snap


def test_merge_snapshots_single_sample_histograms():
    a = {"h": {"count": 1, "mean": 2.0, "min": 2.0, "max": 2.0, "stdev": 0.0}}
    b = {"h": {"count": 1, "mean": 4.0, "min": 4.0, "max": 4.0, "stdev": 0.0}}
    merged = merge_snapshots([a, b])["h"]
    assert merged["count"] == 2
    assert merged["mean"] == pytest.approx(3.0)
    assert merged["min"] == 2.0 and merged["max"] == 4.0
    assert merged["stdev"] == pytest.approx(2.0 ** 0.5)


def test_merge_snapshots_disjoint_names():
    merged = merge_snapshots([{"only_a": 1}, {"only_b": {"deep": 2}}])
    assert merged == {"only_a": 1, "only_b": {"deep": 2}}


def test_merge_snapshots_sums_counters():
    merged = merge_snapshots([{"n": 2}, {"n": 3}, {"n": 5}])
    assert merged == {"n": 10}


# ----------------------------------------------------------------------
# Event builders


def test_trial_events_shape():
    start = trial_start_event(token=7, index=2)
    assert start == {"ev": "trial.start", "token": 7, "index": 2}

    class FakeResult:
        error_rate = 0.25
        bandwidth_kbps = 100.5

    finish = trial_finish_event(
        7, 2, OK, FakeResult(), {"events_executed": 10}, wall_s=0.5
    )
    assert finish["ev"] == "trial.finish"
    assert finish["ber_percent"] == pytest.approx(25.0)
    assert finish["bandwidth_kbps"] == pytest.approx(100.5)
    assert finish["sim"] == {"events_executed": 10}
    assert "metrics" not in finish  # no meta["metrics"] on the result
    assert json.dumps(finish)  # JSON-able contract


def test_trial_finish_event_without_health_fields():
    finish = trial_finish_event(1, 0, "crash", "traceback...", {}, 0.1)
    assert "ber_percent" not in finish and "bandwidth_kbps" not in finish


# ----------------------------------------------------------------------
# CUSUM drift detector


def test_cusum_stable_series_never_alarms():
    detector = Cusum(slack=1.0, threshold=5.0, warmup=3)
    assert not any(detector.update(2.0 + 0.1 * (i % 3)) for i in range(50))


def test_cusum_flags_injected_ber_regression():
    detector = Cusum(slack=1.0, threshold=5.0, warmup=4)
    flags = [detector.update(2.0) for _ in range(8)]
    assert not any(flags)
    # Channel goes noisy mid-sweep: BER jumps from ~2% to ~10%.
    flagged_at = None
    for i in range(10):
        if detector.update(10.0):
            flagged_at = i
            break
    assert flagged_at is not None
    assert detector.alarmed
    # Alarm fires once, not on every subsequent sample.
    assert not detector.update(10.0)


def test_cusum_explicit_target_skips_warmup():
    detector = Cusum(slack=0.5, threshold=1.0, warmup=4, target=1.0)
    assert detector.update(3.0)  # (3-1) - 0.5 = 1.5 >= 1.0


# ----------------------------------------------------------------------
# SweepTelemetry aggregation


def _feed_sweep(telemetry, bers=(1.0, 1.2), cached=0):
    telemetry.handle({"ev": "sweep.start", "trials": len(bers) + cached,
                      "workers": 2, "label": "t"})
    for i, ber in enumerate(bers):
        telemetry.handle(trial_start_event(i, i))
        telemetry.handle({
            "ev": "trial.finish", "token": i, "index": i, "kind": OK,
            "wall_s": 0.25, "ber_percent": ber, "bandwidth_kbps": 100.0,
            "sim": {"events_executed": 50, "engines_created": 1},
        })
    for i in range(cached):
        telemetry.handle({"ev": "trial.cached", "index": len(bers) + i,
                          "kind": OK})
    telemetry.handle({
        "ev": "sweep.finish", "wall_s": 1.0, "ok": len(bers) + cached,
        "dead": 0, "crash": 0, "timeout": 0, "cached": cached,
        "sim": {}, "cache": {"hits": cached, "misses": len(bers)},
    })


def test_sweep_telemetry_aggregates_counts_and_histograms():
    telemetry = SweepTelemetry(label="unit")
    _feed_sweep(telemetry, bers=(1.0, 3.0), cached=1)
    counts = telemetry.registry.counters()
    assert counts["sweep.trials"] == 3
    assert counts["sweep.started"] == 2
    assert counts["sweep.attempts"] == 2
    assert counts["sweep.ok"] == 3  # 2 finishes + 1 cached
    assert counts["sweep.cached"] == 1
    assert counts["sweep.events_executed"] == 100
    assert counts["exec.cache.hits"] == 1
    assert telemetry.done == 3
    snap = telemetry.snapshot()
    ber = snap["sweep"]["ber_percent"]
    assert ber["count"] == 2 and ber["mean"] == pytest.approx(2.0)
    assert "unit" in telemetry.summary()
    assert "3/3" in telemetry.summary()


def test_sweep_telemetry_retries_count_attempts_not_done():
    telemetry = SweepTelemetry()
    telemetry.handle({"ev": "sweep.start", "trials": 1, "workers": 0})
    for kind in (TIMEOUT, OK):  # same index retried
        telemetry.handle({"ev": "trial.finish", "token": 0, "index": 0,
                          "kind": kind, "wall_s": 0.1, "sim": {}})
    assert telemetry.done == 1
    counts = telemetry.registry.counters()
    assert counts["sweep.attempts"] == 2
    assert counts["sweep.timeout"] == 1 and counts["sweep.ok"] == 1


def test_sweep_telemetry_jsonl_stream_and_progress():
    stream, progress = io.StringIO(), io.StringIO()
    telemetry = SweepTelemetry(label="s", stream=stream, progress=progress)
    _feed_sweep(telemetry)
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert [l["ev"] for l in lines[:2]] == ["sweep.start", "trial.start"]
    assert all("t" in l for l in lines)  # relative timestamps
    # Non-tty progress prints only the final line.
    assert progress.getvalue().count("[s]") == 1
    assert "2/2" in progress.getvalue()


def test_sweep_telemetry_cusum_warning_lands_in_snapshot():
    telemetry = SweepTelemetry(cusum=Cusum(slack=0.5, threshold=2.0,
                                           warmup=2))
    bers = (1.0, 1.0, 9.0, 9.0, 9.0)
    _feed_sweep(telemetry, bers=bers)
    assert telemetry.warnings and "CUSUM" in telemetry.warnings[0]
    assert telemetry.registry.counters()["sweep.drift_alarms"] == 1
    assert telemetry.snapshot()["warnings"] == telemetry.warnings


def test_sweep_telemetry_merges_worker_soc_metrics():
    telemetry = SweepTelemetry()
    for value in (2, 3):
        telemetry.handle({
            "ev": "trial.finish", "token": value, "index": value, "kind": OK,
            "wall_s": 0.1, "sim": {},
            "metrics": {"cache": {"llc": {"hits": value}}},
        })
    assert telemetry.snapshot()["soc"] == {"cache": {"llc": {"hits": 5}}}


def test_sweep_telemetry_prom_flush(tmp_path):
    prom = tmp_path / "sweep.prom"
    telemetry = SweepTelemetry(prom_path=prom)
    _feed_sweep(telemetry)
    telemetry.flush()
    text = prom.read_text()
    assert "# TYPE repro_sweep_trials gauge" in text
    assert "repro_sweep_trial_wall_s_count 2" in text


def test_telemetry_from_env_off_by_default():
    assert telemetry_from_env(environ={}) is None
    assert telemetry_from_env(environ={"REPRO_TELEMETRY": "0"}) is None


def test_telemetry_from_env_knobs(tmp_path):
    jsonl = tmp_path / "watch.jsonl"
    telemetry = telemetry_from_env(
        label="envy",
        environ={
            "REPRO_TELEMETRY": "1",
            "REPRO_TELEMETRY_JSONL": str(jsonl),
            "REPRO_TELEMETRY_PROM": str(tmp_path / "m.prom"),
        },
    )
    assert telemetry is not None and telemetry.label == "envy"
    telemetry.handle({"ev": "sweep.start", "trials": 1, "workers": 0})
    telemetry.stream.close()
    assert json.loads(jsonl.read_text().splitlines()[0])["ev"] == "sweep.start"


# ----------------------------------------------------------------------
# Worker queue plumbing


def test_emit_from_worker_without_queue_is_noop():
    install_worker_queue(None)
    emit_from_worker({"ev": "trial.start"})  # must not raise


def test_run_one_trial_emits_on_installed_queue():
    sink = queue_module.Queue()
    install_worker_queue(sink)
    try:
        kind, value, sim = run_one_trial(
            (synthetic_trial, {"n_bits": 24, "noise": 0.1}, 1, 42, 0)
        )
    finally:
        install_worker_queue(None)
    assert kind == OK
    start = sink.get_nowait()
    finish = sink.get_nowait()
    assert start == {"ev": "trial.start", "token": 42, "index": 0}
    assert finish["token"] == 42 and finish["kind"] == OK
    assert finish["sim"]["events_executed"] == sim["events_executed"] > 0
    assert "ber_percent" in finish


def test_run_one_trial_without_token_emits_nothing():
    sink = queue_module.Queue()
    install_worker_queue(sink)
    try:
        kind, _, _ = run_one_trial(
            (synthetic_trial, {"n_bits": 24, "noise": 0.1}, 1)
        )
    finally:
        install_worker_queue(None)
    assert kind == OK
    assert sink.empty()


def test_drainer_keeps_orphan_sims_and_forwards_events():
    telemetry = SweepTelemetry()
    q = queue_module.Queue()
    drainer = _TelemetryDrainer(q, telemetry)
    drainer.start()
    q.put({"ev": "trial.finish", "token": 5, "index": 0, "kind": OK,
           "wall_s": 0.1, "sim": {"events_executed": 9}})
    q.put("garbage")  # non-dict events are skipped, not fatal
    q.put({"ev": "trial.finish", "token": 6, "index": 1, "kind": OK,
           "wall_s": 0.1, "sim": {"events_executed": 4}})
    drainer.stop()
    assert not drainer.is_alive()
    # Token 5's handle was merged by the executor; 6 was abandoned.
    orphans = drainer.orphan_sims(claimed={5})
    assert orphans == [(6, {"events_executed": 4})]
    assert telemetry.registry.counters()["sweep.attempts"] == 2


# ----------------------------------------------------------------------
# Determinism: telemetry and worker count never change sweep results


@pytest.mark.parametrize("workers", [0, 2, 8])
def test_sweep_bit_identical_with_telemetry_on_and_off(workers):
    specs = _specs(n=4)
    plain = TrialExecutor(workers=workers, telemetry=False).run(specs)
    telemetry = SweepTelemetry()
    watched = TrialExecutor(workers=workers, telemetry=telemetry).run(specs)
    assert _outcome_fingerprint(plain) == _outcome_fingerprint(watched)
    assert telemetry.done == len(specs)
    assert telemetry.registry.counters()["sweep.ok"] == len(specs)


def test_sweep_bit_identical_across_worker_counts_with_streaming():
    specs = _specs(n=4)
    baseline = TrialExecutor(workers=0, telemetry=False).run(specs)
    for workers in (0, 2):
        stream = io.StringIO()
        report = TrialExecutor(
            workers=workers, telemetry=SweepTelemetry(stream=stream)
        ).run(specs)
        assert _outcome_fingerprint(report) == _outcome_fingerprint(baseline)
        events = [json.loads(l)["ev"] for l in stream.getvalue().splitlines()]
        assert events.count("trial.finish") == len(specs)
        assert events[-1] == "sweep.finish"


def test_parallel_sim_totals_match_serial_with_telemetry():
    specs = _specs(n=3)
    serial = TrialExecutor(workers=0).run(specs)
    parallel = TrialExecutor(workers=2, telemetry=SweepTelemetry()).run(specs)
    assert parallel.sim["events_executed"] == serial.sim["events_executed"]


# ----------------------------------------------------------------------
# Run ledger


def _run():
    return bench_run_record(workers=0, wall_s=2.0,
                            sim={"events_executed": 100,
                                 "engines_created": 2})


def test_make_record_is_schema_valid():
    record = make_record("fig99", "figure", _run(), fingerprint="abc123",
                         seeds={"root": 1, "count": 4})
    assert validate_record(record) == []
    assert record["schema"] == LEDGER_SCHEMA
    assert record["run"]["events_per_sec"] == pytest.approx(50.0)


def test_validate_record_rejects_bad_shapes():
    assert validate_record("nope") == ["record is not an object"]
    problems = validate_record({"schema": "1", "name": 3})
    assert any("schema" in p for p in problems)
    assert any("missing required field" in p for p in problems)
    # bool must not satisfy an int field.
    record = make_record("x", "figure", {}, fingerprint="f")
    record["ts"] = True
    assert any("'ts'" in p for p in validate_record(record))
    # Newer schema than this reader understands.
    record = make_record("x", "figure", {}, fingerprint="f")
    record["schema"] = LEDGER_SCHEMA + 1
    assert any("newer" in p for p in validate_record(record))


def test_append_and_read_records_roundtrip(tmp_path):
    path = tmp_path / "ledger" / "LEDGER.jsonl"  # parent dir auto-created
    for name in ("fig1", "fig2", "fig1"):
        append_record(path, make_record(name, "figure", _run(),
                                        fingerprint="f" * 8))
    records, problems = read_records(path)
    assert problems == [] and len(records) == 3
    only_fig1, _ = read_records(path, name="fig1")
    assert [r["name"] for r in only_fig1] == ["fig1", "fig1"]
    last, _ = read_records(path, last=1)
    assert len(last) == 1 and last[0]["name"] == "fig1"


def test_append_record_refuses_invalid():
    with pytest.raises(ObservabilityError):
        append_record("/dev/null", {"schema": LEDGER_SCHEMA})


def test_read_records_reports_bad_lines_without_hiding_good(tmp_path):
    path = tmp_path / "LEDGER.jsonl"
    good = make_record("ok", "figure", _run(), fingerprint="f")
    path.write_text(
        "not json\n"
        + json.dumps({"schema": LEDGER_SCHEMA}) + "\n"
        + json.dumps(good) + "\n"
    )
    records, problems = read_records(path)
    assert [r["name"] for r in records] == ["ok"]
    assert len(problems) == 2
    assert problems[0].startswith("line 1:")


def test_read_records_missing_file(tmp_path):
    records, problems = read_records(tmp_path / "absent.jsonl")
    assert records == [] and "not found" in problems[0]


def test_default_ledger_path_knob():
    assert default_ledger_path({"REPRO_LEDGER": "off"}) is None
    assert default_ledger_path({"REPRO_LEDGER": "0"}) is None
    assert str(default_ledger_path({"REPRO_LEDGER": "/tmp/x.jsonl"})) == (
        "/tmp/x.jsonl"
    )
    assert default_ledger_path({}).name == "LEDGER.jsonl"


def test_format_record_flags_drift():
    record = make_record("fig1", "figure", _run(), fingerprint="f" * 16,
                         warnings=["llc: BER drift"])
    line = format_record(record)
    assert "figure:fig1" in line and "drift!=1" in line


def test_ledger_cli(tmp_path, capsys):
    from repro.obs.__main__ import main

    path = tmp_path / "LEDGER.jsonl"
    append_record(path, make_record("fig1", "figure", _run(),
                                    fingerprint="f" * 16))
    # Older ledgers carry a ``predictions`` block; it must still read.
    legacy = make_record("prescreen", "bench", _run(), fingerprint="f" * 16)
    legacy["predictions"] = {"wg2": {"predicted_bandwidth_kbps": 101.0}}
    append_record(path, legacy)
    assert main(["ledger", "--ledger", str(path), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "figure:fig1" in out and "bench:prescreen" in out
    assert main(["ledger", "--ledger", str(path), "--json",
                 "--name", "fig1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["name"] == (
        "fig1"
    )
    # --strict turns parse problems into a failing exit.
    path.write_text(path.read_text() + "garbage\n")
    assert main(["ledger", "--ledger", str(path), "--strict"]) == 1


# ----------------------------------------------------------------------
# Channel-health drift detection


_BASE = {"llc": {"bandwidth_kbps": 100.0, "bandwidth_ci": 2.0,
                 "error_percent": 2.0, "error_ci": 0.5}}


def test_drift_quiet_when_within_allowance():
    current = {"llc": {"bandwidth_kbps": 99.0, "error_percent": 2.4}}
    assert channel_drift_warnings(current, _BASE) == []


def test_drift_flags_ber_regression():
    current = {"llc": {"bandwidth_kbps": 100.0, "error_percent": 9.0}}
    warnings = channel_drift_warnings(current, _BASE)
    assert len(warnings) == 1 and "BER drift" in warnings[0]


def test_drift_flags_bandwidth_drop_not_gain():
    assert channel_drift_warnings(
        {"llc": {"bandwidth_kbps": 150.0, "error_percent": 2.0}}, _BASE
    ) == []
    warnings = channel_drift_warnings(
        {"llc": {"bandwidth_kbps": 70.0, "error_percent": 2.0}}, _BASE
    )
    assert len(warnings) == 1 and "bandwidth drift" in warnings[0]


def test_drift_ber_floor_protects_noiseless_baselines():
    base = {"c": {"error_percent": 0.0, "error_ci": 0.0}}
    assert channel_drift_warnings({"c": {"error_percent": 0.5}}, base) == []
    assert channel_drift_warnings({"c": {"error_percent": 1.0}}, base)


def test_drift_ignores_unmatched_channels_and_non_numeric():
    current = {"new_point": {"error_percent": 99.0}, "llc": "not-a-dict"}
    assert channel_drift_warnings(current, _BASE) == []


def test_zscore():
    assert zscore(12.0, 10.0, 1.0) == pytest.approx(2.0)
    assert zscore(12.0, 10.0, 0.0) == 0.0


def test_channels_of_prefers_requested_worker_entry():
    doc = {"runs": {
        "0": {"channels": {"llc": {"error_percent": 1.0}}},
        "4": {"channels": {"llc": {"error_percent": 2.0}}},
    }}
    assert channels_of(doc, workers=4)["llc"]["error_percent"] == 2.0
    assert channels_of(doc, workers=0)["llc"]["error_percent"] == 1.0
    # Falls back to any run carrying channels.
    assert channels_of(doc, workers=9)["llc"]["error_percent"] == 1.0
    assert channels_of({"runs": {"0": {}}}) is None
    assert channels_of(None) is None


def test_committed_channels_handles_missing_baseline(tmp_path):
    # Not a git repo -> no baseline, never an exception.
    assert committed_channels("nope", repo_root=tmp_path) is None


# ----------------------------------------------------------------------
# Prometheus exporter


def test_sanitize_metric_name():
    assert sanitize_metric_name("repro", "sweep.ok") == "repro_sweep_ok"
    assert sanitize_metric_name("9lives")[0] == "_"


def test_prometheus_text_counters_and_summaries():
    registry = MetricsRegistry()
    registry.counter("sweep.ok").inc(3)
    hist = registry.histogram("sweep.wall")
    hist.add(1.0)
    hist.add(3.0)
    text = prometheus_text(registry.as_dict())
    assert "# TYPE repro_sweep_ok gauge\nrepro_sweep_ok 3" in text
    assert "# TYPE repro_sweep_wall summary" in text
    assert 'repro_sweep_wall{quantile="0.5"}' in text
    assert "repro_sweep_wall_count 2" in text
    assert "repro_sweep_wall_sum 4" in text
    assert text.endswith("\n")


def test_prometheus_text_skips_non_numeric_leaves():
    text = prometheus_text({"warnings": ["drift"], "ok": 1})
    assert "warnings" not in text and "repro_ok 1" in text


# ----------------------------------------------------------------------
# Shared bench footer assembly


def test_bench_run_record_from_census_like_and_stats():
    class FakeCensus:
        engines_created = 2
        events_executed = 1000

    class FakeStats:
        def as_dict(self):
            return {"hits": 1, "misses": 2}

    record = bench_run_record(
        workers=4, wall_s=2.0, census=FakeCensus(), cache=FakeStats(),
        checkpoints={"stores": 3}, channels={"llc": {"error_percent": 1.0}},
        extra={"speedup_vs_cold": 2.5},
    )
    assert record["workers"] == 4 and record["engines"] == 2
    assert record["events_per_sec"] == pytest.approx(500.0)
    assert record["cache"] == {"hits": 1, "misses": 2}
    assert record["checkpoints"] == {"stores": 3}
    assert record["channels"]["llc"]["error_percent"] == 1.0
    assert record["speedup_vs_cold"] == 2.5
    assert json.dumps(record)


def test_bench_run_record_zero_wall_and_sim_fallback():
    record = bench_run_record(workers=0, wall_s=0.0,
                              sim={"events_executed": 7})
    assert record["events_per_sec"] == 0.0
    assert record["events_executed"] == 7
    assert "cache" not in record and "channels" not in record
