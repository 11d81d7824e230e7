"""repro.exec: seed fan-out, caching, executor determinism, degradation, CLI."""

import dataclasses
import json
import os
import pathlib
import pickle
import subprocess
import sys
import time

import pytest

from repro.errors import ChannelProtocolError
from repro.exec import (
    CRASH,
    DEAD,
    OK,
    TIMEOUT,
    ResultCache,
    TrialExecutor,
    TrialSpec,
    canonical_repr,
    code_fingerprint,
    derive_seed,
    fan_out_seeds,
)
from repro.exec.demo import synthetic_trial


# -- module-level trial functions (picklable into worker processes) -----


def _sleeper_trial(params, seed):
    time.sleep(float(params.get("sleep_s", 60.0)))
    return seed


def _crasher_trial(params, seed):
    raise ValueError(f"boom {seed}")


def _fast_trial(params, seed):
    return params.get("x", 0) * 1000 + seed


def _specs(noises=(0.0, 0.1, 0.3), seeds=(1, 2)):
    return [
        TrialSpec(
            fn=synthetic_trial,
            params={"n_bits": 24, "noise": noise},
            seed=seed,
        )
        for noise in noises
        for seed in seeds
    ]


def _outcome_fingerprint(report):
    """Byte-exact digest of every outcome: kind + result/error.

    Each outcome is pickled on its own: a combined dump would compare
    object *identity* across outcomes (pickle memoization), which the
    executor deliberately does not preserve — only values.
    """
    return [
        pickle.dumps((o.kind, o.result, o.error)) for o in report.outcomes
    ]


# -- seed derivation ----------------------------------------------------


def test_derive_seed_deterministic_and_bounded():
    a = derive_seed(1, "trial", 0)
    assert a == derive_seed(1, "trial", 0)
    assert 0 <= a < 2**63


def test_derive_seed_sensitive_to_every_component():
    base = derive_seed(1, "trial", 0)
    assert derive_seed(2, "trial", 0) != base
    assert derive_seed(1, "other", 0) != base
    assert derive_seed(1, "trial", 1) != base


def test_fan_out_seeds_deterministic_and_distinct():
    seeds = fan_out_seeds(7, 16)
    assert seeds == fan_out_seeds(7, 16)
    assert len(set(seeds)) == 16
    assert fan_out_seeds(7, 16, label="llc") != seeds


def test_canonical_repr_is_order_insensitive_for_dicts():
    assert canonical_repr({"a": 1, "b": 2}) == canonical_repr({"b": 2, "a": 1})
    assert canonical_repr({"a": 1}) != canonical_repr({"a": 2})


def test_canonical_repr_handles_dataclasses_and_callables():
    @dataclasses.dataclass(frozen=True)
    class Point:
        x: int
        y: int

    assert canonical_repr(Point(1, 2)) == canonical_repr(Point(1, 2))
    assert canonical_repr(Point(1, 2)) != canonical_repr(Point(1, 3))
    assert "synthetic_trial" in canonical_repr(synthetic_trial)


def test_code_fingerprint_stable():
    first = code_fingerprint()
    assert first == code_fingerprint()
    assert len(first) == 64
    assert first == code_fingerprint(refresh=True)


# -- result cache -------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = cache.key_for(synthetic_trial, {"n_bits": 8}, 3)
    assert cache.get(key) is None
    cache.put(key, OK, {"value": 42})
    assert cache.get(key) == (OK, {"value": 42})
    assert len(cache) == 1
    cache.clear()
    assert cache.get(key) is None


def test_cache_key_separates_fn_params_seed_fingerprint(tmp_path):
    cache_a = ResultCache(tmp_path, fingerprint="aaaa")
    cache_b = ResultCache(tmp_path, fingerprint="bbbb")
    base = cache_a.key_for(synthetic_trial, {"n_bits": 8}, 3)
    assert cache_a.key_for(synthetic_trial, {"n_bits": 9}, 3) != base
    assert cache_a.key_for(synthetic_trial, {"n_bits": 8}, 4) != base
    assert cache_a.key_for(_fast_trial, {"n_bits": 8}, 3) != base
    # A code change (new fingerprint) invalidates every prior entry.
    assert cache_b.key_for(synthetic_trial, {"n_bits": 8}, 3) != base


def test_cache_corrupt_entry_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key_for(synthetic_trial, {}, 1)
    cache.put(key, OK, 1)
    path = next(p for p in (tmp_path).rglob("*.pkl"))
    path.write_bytes(b"not a pickle")
    assert cache.get(key) is None
    assert not path.exists()  # corrupt entries are evicted


# -- executor determinism ----------------------------------------------


def test_serial_and_parallel_runs_are_byte_identical():
    specs = _specs()
    baseline = TrialExecutor(workers=0).run(specs)
    assert all(o.kind == OK for o in baseline.outcomes)
    for workers in (2, 8):
        report = TrialExecutor(workers=workers).run(specs)
        assert _outcome_fingerprint(report) == _outcome_fingerprint(baseline)


def test_dead_points_identical_across_worker_counts():
    specs = _specs(noises=(0.1, 0.9), seeds=(1,))
    baseline = TrialExecutor(workers=0).run(specs)
    assert [o.kind for o in baseline.outcomes] == [OK, DEAD]
    report = TrialExecutor(workers=2).run(specs)
    assert _outcome_fingerprint(report) == _outcome_fingerprint(baseline)


def test_cache_hits_equal_cold_run(tmp_path):
    specs = _specs()
    cold_exec = TrialExecutor(workers=0, cache=tmp_path / "c")
    cold = cold_exec.run(specs)
    assert cold_exec.cache.stats.misses == len(specs)
    assert cold_exec.cache.stats.stores == len(specs)

    warm_exec = TrialExecutor(workers=0, cache=tmp_path / "c")
    warm = warm_exec.run(specs)
    assert warm_exec.cache.stats.hits == len(specs)
    assert all(o.from_cache for o in warm.outcomes)
    assert _outcome_fingerprint(warm) == _outcome_fingerprint(cold)
    # No simulation happened on the warm run.
    assert warm.sim["events_executed"] == 0


def test_dead_outcomes_are_cached(tmp_path):
    specs = _specs(noises=(0.9,), seeds=(5,))
    TrialExecutor(workers=0, cache=tmp_path).run(specs)
    warm = TrialExecutor(workers=0, cache=tmp_path).run(specs)
    outcome = warm.outcomes[0]
    assert outcome.kind == DEAD
    assert outcome.from_cache
    assert "noise" in outcome.error


def test_report_sim_census_and_summary():
    report = TrialExecutor(workers=0).run(_specs(noises=(0.0,), seeds=(1,)))
    assert report.sim["engines_created"] == 1
    assert report.sim["events_executed"] > 0
    assert "trials ok" in report.summary()


# -- degradation --------------------------------------------------------


def test_crash_becomes_recorded_failure_serial():
    report = TrialExecutor(workers=0).run(
        [TrialSpec(fn=_crasher_trial, params={}, seed=9)]
    )
    outcome = report.outcomes[0]
    assert outcome.kind == CRASH
    assert "ValueError" in outcome.error
    assert "boom 9" in outcome.error


def test_crash_retried_then_recorded_parallel():
    executor = TrialExecutor(workers=1, retries=1, trial_timeout_s=60.0)
    report = executor.run([TrialSpec(fn=_crasher_trial, params={}, seed=2)])
    outcome = report.outcomes[0]
    assert outcome.kind == CRASH
    assert outcome.attempts == 2
    assert "ValueError" in outcome.error


def test_wedged_trial_times_out_without_hanging_the_sweep():
    executor = TrialExecutor(workers=1, trial_timeout_s=0.5, retries=0)
    specs = [
        TrialSpec(fn=_sleeper_trial, params={"sleep_s": 60.0}, seed=0),
        TrialSpec(fn=_fast_trial, params={"x": 1}, seed=1),
        TrialSpec(fn=_fast_trial, params={"x": 2}, seed=2),
    ]
    start = time.monotonic()
    report = executor.run(specs)
    assert time.monotonic() - start < 30.0
    assert [o.kind for o in report.outcomes] == [TIMEOUT, OK, OK]
    # The trials queued behind the wedged worker still produced results.
    assert report.outcomes[1].result == 1001
    assert report.outcomes[2].result == 2002


# -- pool teardown ------------------------------------------------------


def test_successful_pool_run_lets_workers_exit_cleanly(monkeypatch):
    """No worker of a run whose trials all returned is killed.

    A SIGTERMed worker can die holding the telemetry queue's write lock,
    after which the queue never drains; idle workers must exit on their
    own (exit code 0), both for plain trials and for a batch group.
    """
    import multiprocessing.pool

    from repro.analysis import probe_sweep
    from repro.sim.batch import gate as batch_gate

    workers = []

    class RecordingPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            workers.extend(self._pool)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordingPool)
    specs = _specs() + [
        TrialSpec(fn=probe_sweep.probe_trial, params={}, seed=100 + s)
        for s in range(2)
    ]
    # Two runs: a terminated idle worker sometimes exits before the
    # signal lands, so one run alone can miss the kill.
    for _ in range(2):
        with batch_gate.forced(True):
            report = TrialExecutor(workers=2).run(specs)
        assert [o.kind for o in report.outcomes] == [OK] * len(specs)
    # Per run: one worker for the batch group, two for the plain trials.
    assert len(workers) == 6
    assert [w.exitcode for w in workers] == [0] * 6


def test_pool_sweep_subprocess_exits_cleanly():
    """An interpreter that ran a pool sweep exits by itself, promptly."""
    import repro

    code = (
        "from repro.analysis.sweep import grid, run_sweep\n"
        "from repro.exec.demo import synthetic_trial\n"
        "points = grid(noise=(0.0, 0.2), n_bits=(16,))\n"
        "result = run_sweep(synthetic_trial, points, seeds=(1, 2, 3), workers=2)\n"
        "assert all(point.alive for point in result.points)\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_executor_rejects_bad_configuration():
    with pytest.raises(ValueError):
        TrialExecutor(workers=-1)
    with pytest.raises(ValueError):
        TrialExecutor(trial_timeout_s=0)
    with pytest.raises(ValueError):
        TrialExecutor(retries=-1)


# -- hot-path structural guarantees ------------------------------------


def test_event_classes_have_no_instance_dict():
    from repro.sim.engine import Engine
    from repro.sim.events import Event, Timeout
    from repro.sim.process import Process

    engine = Engine()
    assert not hasattr(Event(engine), "__dict__")
    assert not hasattr(Timeout(engine, 5), "__dict__")

    def gen():
        yield Timeout(engine, 1)

    assert not hasattr(Process(engine, gen()), "__dict__")


# -- CLI ----------------------------------------------------------------


def test_cli_smoke_serial(capsys):
    from repro.exec.__main__ import main

    code = main(["--sweep", "smoke", "--no-cache", "--bits", "8", "--seeds", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cache: disabled" in out
    assert "trials ok" in out


def test_cli_json_and_cache(tmp_path, capsys):
    from repro.exec.__main__ import main

    json_path = tmp_path / "summary.json"
    cache_dir = tmp_path / "cache"
    argv = [
        "--sweep", "smoke", "--bits", "8", "--seeds", "2",
        "--cache-dir", str(cache_dir), "--json", str(json_path),
    ]
    assert main(argv) == 0
    doc = json.loads(json_path.read_text())
    for key in ("sweep", "workers", "wall_s", "events_per_sec", "cache", "outcomes"):
        assert key in doc
    assert doc["cache"]["misses"] > 0

    capsys.readouterr()
    assert main(argv) == 0
    warm = json.loads(json_path.read_text())
    assert warm["cache"]["hits"] == doc["cache"]["misses"]
    assert warm["cache"]["misses"] == 0
    assert "100% hit rate" in capsys.readouterr().out


def _race_writer(root, key, payload, barrier, rounds):
    cache = ResultCache(root, fingerprint="race")
    for _ in range(rounds):
        barrier.wait()
        cache.put(key, "ok", payload)


def test_cache_concurrent_writers_keep_one_valid_entry(tmp_path):
    """Two writers racing on one key: atomic rename, never a torn entry."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    cache = ResultCache(tmp_path, fingerprint="race")
    key = cache.key_for(_fast_trial, {"x": 1}, 7)
    rounds = 25
    barrier = ctx.Barrier(2)
    writers = [
        ctx.Process(target=_race_writer,
                    args=(tmp_path, key, payload, barrier, rounds))
        for payload in ("from-a", "from-b")
    ]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=60)
        assert w.exitcode == 0
    # Exactly one entry survives, readable, holding one racer's payload.
    assert len(cache) == 1
    hit = cache.get(key)
    assert hit is not None
    kind, payload = hit
    assert kind == "ok" and payload in ("from-a", "from-b")
    assert cache.stats.evictions == 0
    # No stray .tmp files left behind by either racer.
    assert not list(tmp_path.rglob("*.tmp"))


def test_checkpoint_store_concurrent_writers(tmp_path):
    """Same discipline for checkpoint blobs: one valid JSON entry."""
    import multiprocessing

    from repro.checkpoint import CheckpointStore

    def writer(root, key, label, barrier):
        store = CheckpointStore(root, fingerprint="race")
        for _ in range(25):
            barrier.wait()
            store.put(key, {"schema": 1, "config_digest": label, "state": {}})

    ctx = multiprocessing.get_context("fork")
    store = CheckpointStore(tmp_path, fingerprint="race")
    key = store.key_for({"cfg": 1}, "prefix", 0)
    barrier = ctx.Barrier(2)
    writers = [
        ctx.Process(target=writer, args=(tmp_path, key, label, barrier))
        for label in ("a", "b")
    ]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=60)
        assert w.exitcode == 0
    assert len(store) == 1
    blob = store.get(key)
    assert blob is not None and blob["config_digest"] in ("a", "b")
    assert store.stats.evictions == 0
    assert not list(tmp_path.rglob("*.tmp"))
