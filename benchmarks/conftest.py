"""Shared helpers for the per-figure benchmark harnesses.

Every ``bench_fig*`` module regenerates one evaluation artifact of the
paper: it runs the experiment, prints the measured rows next to the
paper-reported values, and records the text report under
``benchmarks/results/`` (EXPERIMENTS.md is written from those reports).

Each report carries a simulation-cost footer (engines created, total
engine events executed, final simulated clock) collected by an
:class:`repro.obs.EngineCensus` armed for the duration of the test —
including work done in executor worker processes, which publish their
merged census back to the parent.

Alongside the text report every figure writes a machine-readable
``BENCH_<name>.json``: wall seconds, events executed and events/sec,
keyed by worker count, so a parallel run records its speedup against the
serial baseline in the same file.  Set ``REPRO_BENCH_WORKERS=N`` to fan
the executor-backed harnesses across N worker processes (default 0 =
serial; the figure data is bit-identical either way).
"""

import json
import os
import pathlib
import time
import typing

import pytest

from repro.obs import EngineCensus
from repro.obs.drift import channel_drift_warnings, committed_channels
from repro.obs.ledger import append_record, default_ledger_path, make_record
from repro.obs.telemetry import bench_run_record

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Worker-process count for the executor-backed figure harnesses.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0") or "0")

#: One code fingerprint per bench session (hashing the tree is ~ms, but
#: every figure appends a ledger record and they all share it).
_FINGERPRINT: typing.Optional[str] = None


def _session_fingerprint() -> str:
    global _FINGERPRINT
    if _FINGERPRINT is None:
        from repro.exec.fingerprint import code_fingerprint

        _FINGERPRINT = code_fingerprint()
    return _FINGERPRINT


def _ledger_path() -> typing.Optional[pathlib.Path]:
    """Bench runs ledger by default, under results/; REPRO_LEDGER overrides."""
    if os.environ.get("REPRO_LEDGER", "").strip():
        return default_ledger_path()
    return RESULTS_DIR / "LEDGER.jsonl"


def append_ledger_record(
    name: str,
    kind: str,
    run: typing.Dict[str, object],
    warnings: typing.Sequence[str] = (),
) -> None:
    """Append one provenance record for a bench run (never fails the bench)."""
    path = _ledger_path()
    if path is None:
        return
    record = make_record(
        name=name,
        kind=kind,
        run=run,
        channels=typing.cast(
            typing.Optional[typing.Dict[str, object]], run.get("channels")
        ),
        warnings=warnings,
        fingerprint=_session_fingerprint(),
    )
    try:
        append_record(path, record)
    except OSError as exc:  # read-only checkout etc.
        print(f"ledger: skipped ({exc})")


@pytest.fixture
def bench_workers() -> int:
    """How many executor workers this bench run was asked to use."""
    return BENCH_WORKERS


def report(name: str, title: str, body: str, footer: str = "") -> None:
    """Print a figure report and persist it for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = f"== {title} ==\n{body}\n"
    if footer:
        text += f"{footer}\n"
    print("\n" + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text)


def _load_json(path: pathlib.Path, default: dict) -> dict:
    if path.exists():
        try:
            return json.loads(path.read_text())
        except ValueError:
            pass
    return default


def record_bench_json(name: str, run: typing.Dict[str, object]) -> pathlib.Path:
    """Merge one run record into ``results/BENCH_<name>.json``.

    Runs are keyed by worker count; when both a serial (``"0"``) and a
    parallel run are present, each parallel run gains
    ``speedup_vs_serial`` so the artifact answers "what did the pool
    buy" directly.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    doc = _load_json(path, {"name": name, "runs": {}})
    runs = doc.setdefault("runs", {})
    runs[str(run.get("workers", 0))] = run
    serial = runs.get("0")
    for run_key, entry in runs.items():
        if not isinstance(entry, dict):
            continue
        if run_key != "0" and serial and serial.get("wall_s") and entry.get("wall_s"):
            entry["speedup_vs_serial"] = round(
                typing.cast(float, serial["wall_s"])
                / typing.cast(float, entry["wall_s"]),
                3,
            )
        else:
            entry.pop("speedup_vs_serial", None)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def record_core_metric(bench: str, metric: str, value: float) -> None:
    """Record one scalar (e.g. events/sec) in ``BENCH_<bench>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{bench}.json"
    doc = _load_json(path, {"name": bench, "metrics": {}})
    doc.setdefault("metrics", {})[metric] = round(value, 1)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    append_ledger_record(bench, "core", {metric: round(value, 1)})


@pytest.fixture
def figure_report():
    """``report`` + census footer, BENCH_<name>.json, drift check, ledger.

    Pass ``channels={"llc": aggregate.as_dict(), ...}`` to record
    per-channel health (bandwidth/BER with CIs) in the BENCH artifact;
    the same dict is z-score drift-checked against the channels in the
    *committed* BENCH_<name>.json (via ``git show``), and any drift
    warnings land in the report footer and the run ledger.
    """
    with EngineCensus() as census:
        start = time.perf_counter()

        def _report(
            name: str,
            title: str,
            body: str,
            channels: typing.Optional[typing.Dict[str, object]] = None,
        ) -> None:
            wall_s = time.perf_counter() - start
            run = bench_run_record(
                workers=BENCH_WORKERS,
                wall_s=wall_s,
                census=census,
                channels=channels,
            )
            warnings: typing.List[str] = []
            if channels:
                baseline = committed_channels(
                    name,
                    repo_root=RESULTS_DIR.parent.parent,
                    workers=BENCH_WORKERS,
                )
                if baseline:
                    warnings = channel_drift_warnings(
                        typing.cast(typing.Dict[str, typing.Dict], channels),
                        baseline,
                    )
            footer = census.footer()
            if warnings:
                footer += "\n" + "\n".join(f"DRIFT: {w}" for w in warnings)
            report(name, title, body, footer=footer)
            record_bench_json(name, run)
            append_ledger_record(name, "figure", run, warnings=warnings)

        yield _report
