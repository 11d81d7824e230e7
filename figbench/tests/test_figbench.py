"""Tests of the figure-regeneration benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest figbench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import typing
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: ``rows()`` of each workload's first call at the default seed; their
#: digests are the committed references.
DEFAULT_ROWS = {
    "headline": [["llc-prime+probe", 130.4, 0.0], ["ring-contention", 353.3, 0.0]],
    "fig10-pool": [
        [1, "1 MB", 323.9, 56.25, 0.0, 0.724],
        [2, "1 MB", 323.9, 0.0, 0.0, 1.224],
        [4, "1 MB", 328.2, 0.0, 0.0, 1.723],
        [8, "1 MB", 328.2, 0.0, 0.0, 1.758],
        [1, "2 MB", 323.9, 56.25, 0.0, 0.362],
        [2, "2 MB", 328.2, 0.0, 0.0, 0.558],
        [4, "2 MB", 323.9, 0.0, 0.0, 0.862],
        [8, "2 MB", 341.9, 12.5, 0.0, 0.88],
    ],
}


def benchmark_json() -> typing.Dict[str, typing.Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- seed derivation ----------------------------------------------------


def test_default_seed_maps_to_the_figures_default_seeds():
    assert workloads.figure_seeds(0, 0, 3) == (1, 2, 3)
    assert workloads.figure_seeds(0, 0, 1) == (1,)


def test_figure_seed_tuples_are_disjoint_across_seeds_and_calls():
    for count in (1, 3):
        seen: typing.Set[int] = set()
        for seed in range(4):
            for call in (0, 1, 2, workloads.CALLS_PER_SEED - 1):
                seeds = workloads.figure_seeds(seed, call, count)
                assert len(seeds) == count
                assert seen.isdisjoint(seeds)
                seen.update(seeds)


@pytest.mark.parametrize("seed, call", [(-1, 0), (0, -1), (0, workloads.CALLS_PER_SEED)])
def test_out_of_range_seed_or_call_is_refused(seed, call):
    with pytest.raises(ValueError):
        workloads.figure_seeds(seed, call, 3)


# -- output checks ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_rows_pass_and_hash_to_the_reference(name):
    workload = workloads.WORKLOADS[name]
    rows = DEFAULT_ROWS[name]
    assert workloads.rows_digest(rows) == workload.reference_digest
    assert workloads.check_rows(workload, workloads.DEFAULT_SEED, 0, rows) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_perturbed_row_fails_the_digest_at_the_default_seed(name):
    workload = workloads.WORKLOADS[name]
    rows = json.loads(json.dumps(DEFAULT_ROWS[name]))
    rows[-1][workload.kbps_col] += 0.1
    problems = workloads.check_rows(workload, workloads.DEFAULT_SEED, 0, rows)
    assert any("digest" in p for p in problems)
    # Elsewhere only the shape claims apply, and this row still meets them.
    assert workloads.check_rows(workload, 5, 0, rows) == []


def test_headline_shape_claim_catches_a_slower_contention_channel():
    workload = workloads.WORKLOADS["headline"]
    rows = [["llc-prime+probe", 130.4, 0.0], ["ring-contention", 120.0, 0.0]]
    assert workloads.check_rows(workload, 5, 0, rows)


def test_fig10_shape_claims_catch_a_spread_band_and_a_lossy_best_point():
    workload = workloads.WORKLOADS["fig10-pool"]
    spread = json.loads(json.dumps(DEFAULT_ROWS["fig10-pool"]))
    for row in spread[:3]:
        row[2] = 500.0
    assert workloads.check_rows(workload, 5, 0, spread)
    lossy = json.loads(json.dumps(DEFAULT_ROWS["fig10-pool"]))
    for row in lossy:
        row[3] = max(row[3], 2.5)
    assert workloads.check_rows(workload, 5, 0, lossy)


def test_a_missing_paper_point_fails():
    workload = workloads.WORKLOADS["fig10-pool"]
    rows = [r for r in DEFAULT_ROWS["fig10-pool"] if (r[0], r[1]) != (2, "2 MB")]
    assert any("paper point" in p for p in workloads.check_rows(workload, 5, 0, rows))


def test_paper_points_transcribe_the_figures_paper_dicts():
    from repro.analysis import figures

    papers = {
        "headline": figures.HeadlineData(llc=None, contention=None).paper,  # type: ignore[arg-type]
        "fig10-pool": figures.Fig10Data(points=[]).paper,
    }
    for name, workload in workloads.WORKLOADS.items():
        text = " ".join(papers[name].values())
        for point in workload.points:
            for value in (point.kbps, point.error_pct):
                if value is None or (name, value) == ("fig10-pool", 396.0):
                    continue
                assert f"{value:g}" in text, (name, value)
    assert "390-402 kb/s" in papers["fig10-pool"]["bandwidth"]


def test_fidelity_is_the_mean_gap_over_quoted_points():
    workload = workloads.WORKLOADS["headline"]
    gaps = workloads.fidelity(workload, DEFAULT_ROWS["headline"])
    assert gaps["bw_gap_pct"] == pytest.approx(
        (100 * 10.4 / 120 + 100 * 46.7 / 400) / 2
    )
    assert gaps["ber_gap_pts"] == pytest.approx((2.0 + 0.8) / 2)


def test_a_mismatched_call_counts_all_its_trials_failed():
    workload = workloads.WORKLOADS["headline"]
    good = {
        "rows": DEFAULT_ROWS["headline"],
        "seed_rows": [DEFAULT_ROWS["headline"]] * 3,
        "exec": {"trials": 7, "trials_failed": 0},
    }
    bad = {
        "rows": [["llc-prime+probe", 130.4, 0.0], ["ring-contention", 99.0, 0.0]],
        "seed_rows": [DEFAULT_ROWS["headline"]] * 3,
        "exec": {"trials": 7, "trials_failed": 0},
    }
    attempted, failed, problems = run.judge(workload, 0, [(0, good), (1, bad)])
    assert (attempted, failed) == (14, 7)
    assert problems and all(p.startswith("call 1") for p in problems)
    # The same call printing different rows is a mismatch too.
    attempted, failed, _ = run.judge(workload, 3, [(0, good), (0, dict(good, rows=bad["rows"]))])
    assert (attempted, failed) == (14, 7)


# -- profiler fold ------------------------------------------------------


def test_fold_charges_unlayered_code_to_its_callers_layers():
    src = os.path.join(os.sep, "x", "src")
    engine = (os.path.join(src, "repro", "sim", "engine.py"), 1, "run")
    cache = (os.path.join(src, "repro", "soc", "cache.py"), 1, "access")
    helper = (os.path.join(src, "repro", "core", "framing.py"), 1, "crc")
    builtin = ("~", 0, "<built-in method heappush>")
    harness = (os.path.join(src, "repro", "analysis", "figures.py"), 1, "headline")
    stats = {
        engine: (1, 1, 2.0, 9.0, {harness: (1, 1, 2.0, 9.0)}),
        cache: (5, 5, 3.0, 3.0, {engine: (5, 5, 3.0, 3.0)}),
        builtin: (9, 9, 1.0, 1.0, {engine: (6, 6, 0.75, 0.75), cache: (3, 3, 0.25, 0.25)}),
        helper: (2, 2, 0.5, 0.5, {cache: (2, 2, 0.5, 0.5)}),
        harness: (1, 1, 0.4, 10.0, {}),
    }
    layers = tracing.fold_stats(stats, src)
    assert layers["sim"] == pytest.approx(2.0 + 0.75)
    assert layers["soc"] == pytest.approx(3.0 + 0.25 + 0.5)
    # The harness's own 0.4 s reaches no layer.
    assert sum(layers.values()) == pytest.approx(6.5)
    assert set(layers) == set(tracing.LAYERS)


# -- the command's output matches BENCHMARK.json ------------------------


def _fake_result(workload: workloads.Workload, call: int) -> dict:
    exec_summary = {
        key: 1.0
        for key in (
            "trials", "trials_failed", "attempts", "run_s", "trial_s_sum",
            "trial_s_max", "payload_bytes", "events", "engines", "llc_bits",
            "llc_bit_errors", "llc_trial_s", "contention_bits",
            "contention_trial_s", "contention_transmits", "frame_attempts",
            "first_try",
        )
    }
    exec_summary["trials_failed"] = 0
    result = {
        "wall_s": 1.0 + call,
        "cpu_s": 1.0,
        "peak_rss_mb": 40.0,
        "rows": DEFAULT_ROWS[workload.name],
        "exec": exec_summary,
    }
    if workload.seed_rows is not None:
        result["seed_rows"] = [DEFAULT_ROWS[workload.name]] * workload.seeds_per_call
    return result


def _fake_spawn(args: typing.Sequence[str]) -> typing.Tuple[float, typing.Optional[dict]]:
    if "--setup-only" in args:
        return 0.1, None
    workload = workloads.WORKLOADS[args[args.index("--workload") + 1]]
    result = _fake_result(workload, int(args[args.index("--call") + 1]))
    if "--trace" in args:
        layers = {layer: 0.1 for layer in tracing.LAYERS}
        result["trace"] = {
            "parent_layers": layers,
            "parent_spans": {"sim.run": {"calls": 1, "s": 0.5}},
            "parent_soc": {"llc_hits": 3, "llc_misses": 1},
            "workers": [{"layers": layers, "spans": {}, "soc": {}}],
        }
    return 0.1, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_match_benchmark_json(monkeypatch, name, trace):
    monkeypatch.setattr(run, "spawn", _fake_spawn)
    monkeypatch.setattr(run, "prepare", lambda: None)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    printed = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True and printed["failed"] == 0
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert printed["metrics"]["wall_s"]["value"] == 3.0  # median of 1..5


def test_benchmark_json_names_the_workloads_run_accepts():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_without_the_program_the_command_fails_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "figbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "figbench/run.py", "--workload", "headline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the real program ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_program_reproduces_the_reference_rows(name):
    workload = workloads.WORKLOADS[name]
    rows = workload.call(workloads.DEFAULT_SEED, 0)
    assert rows == DEFAULT_ROWS[name]


def test_headline_single_seed_rows_average_to_the_call_rows():
    from repro.exec import TrialExecutor

    class Recording(TrialExecutor):
        def __init__(self) -> None:
            super().__init__(workers=0)
            self.trials: typing.List[typing.Tuple[object, object]] = []

        def run(self, specs):  # type: ignore[override]
            report = super().run(specs)
            self.trials.extend(zip(specs, report.outcomes))
            return report

    workload = workloads.WORKLOADS["headline"]
    executor = Recording()
    rows = workload.call(workloads.DEFAULT_SEED, 0, executor=executor)
    assert workload.seed_rows is not None
    per_seed = workload.seed_rows(executor.trials)
    assert len(per_seed) == workload.seeds_per_call
    for index, row in enumerate(rows):
        assert [r[index][0] for r in per_seed] == [row[0]] * len(per_seed)
        for col, digits in ((1, 1), (2, 2)):
            mean = sum(float(r[index][col]) for r in per_seed) / len(per_seed)
            assert mean == pytest.approx(row[col], abs=10.0 ** -digits)


def test_a_call_missing_single_seed_rows_fails():
    workload = workloads.WORKLOADS["headline"]
    result = _fake_result(workload, 0)
    result["seed_rows"] = result["seed_rows"][:1]
    attempted, failed, problems = run.judge(workload, 1, [(0, result)])
    assert failed == attempted and problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shape_claims_hold_on_a_held_out_seed(name):
    workload = workloads.WORKLOADS[name]
    held_out = 977
    rows = workload.call(held_out, 3)
    assert workloads.check_rows(workload, held_out, 3, rows) == []
