"""Benchmark regression guard for the committed performance artifacts.

Five families of checks, the first four against the figures committed
at HEAD (the benchmark run overwrites the working-tree files, so the
baseline has to come out of git) and the last absolute, self-contained
in its artifact:

* ``engine_events_per_sec`` from ``BENCH_simulator_core.json`` — the
  core scheduler throughput metric (higher is better);
* the headline wall time from ``BENCH_headline.json`` (lower is better,
  with a wider tolerance — wall clocks on shared runners are noisy);
* ``events_per_sec`` of every per-figure ``BENCH_*.json`` that records
  one (higher is better);
* channel health: per-channel BER / bandwidth in every artifact that
  records a ``channels`` block, z-score-checked against the committed
  baseline via :mod:`repro.obs.drift` — a BER rise or bandwidth drop
  beyond the committed confidence interval is a regression, not noise;
* the lockstep-batching floor from ``BENCH_batch.json`` — an *absolute*
  check, no git baseline involved: the best batched row's aggregate
  events/sec must stay at or above ``acceptance_floor_speedup`` times
  the serial row recorded in the same artifact.

A metric present in the working tree but absent from the committed
baseline — a brand-new benchmark, or an old artifact that predates a
field — is reported and *skipped*, not failed: first runs must be able
to establish their own baseline.

Usage (CI runs exactly this)::

    python -m pytest benchmarks/bench_simulator_core.py -q
    python benchmarks/check_bench_regression.py

Exit status 0 on pass, 1 on any regression, 2 when nothing could be
checked at all (no results, or not a git checkout and no ``--baseline``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import subprocess
import sys
import typing

RESULTS_RELDIR = "benchmarks/results"
CORE_RESULT = "BENCH_simulator_core.json"
HEADLINE_RESULT = "BENCH_headline.json"
BATCH_RESULT = "BENCH_batch.json"
CORE_METRIC = "engine_events_per_sec"
DEFAULT_TOLERANCE = 0.20
DEFAULT_WALL_TOLERANCE = 0.50


def _repo_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent.parent


@dataclasses.dataclass(frozen=True)
class Check:
    """One guarded scalar: where it lives and which direction is worse."""

    name: str
    relpath: str
    extract: typing.Callable[[dict], typing.Optional[float]]
    tolerance: float
    higher_is_better: bool = True


def _metric(doc: dict, *path: str) -> typing.Optional[float]:
    """Walk nested dict keys; ``None`` (not KeyError) when any is absent."""
    node: object = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    try:
        return float(typing.cast(float, node))
    except (TypeError, ValueError):
        return None


def committed_doc(relpath: str, rev: str) -> typing.Optional[dict]:
    """The artifact as committed at ``rev``, or ``None`` if absent there."""
    try:
        blob = subprocess.check_output(
            ["git", "show", f"{rev}:{relpath}"],
            cwd=_repo_root(),
            stderr=subprocess.DEVNULL,
        )
    except (subprocess.CalledProcessError, FileNotFoundError, OSError):
        return None
    try:
        return json.loads(blob)
    except ValueError:
        return None


def build_checks(
    results_dir: pathlib.Path, tolerance: float, wall_tolerance: float
) -> typing.List[Check]:
    checks = [
        Check(
            name=f"simulator_core {CORE_METRIC}",
            relpath=f"{RESULTS_RELDIR}/{CORE_RESULT}",
            extract=lambda doc: _metric(doc, "metrics", CORE_METRIC),
            tolerance=tolerance,
        ),
        Check(
            name="headline wall_s",
            relpath=f"{RESULTS_RELDIR}/{HEADLINE_RESULT}",
            extract=lambda doc: _metric(doc, "runs", "0", "wall_s"),
            tolerance=wall_tolerance,
            higher_is_better=False,
        ),
    ]
    checks.append(
        Check(
            name="batch aggregate events_per_sec",
            relpath=f"{RESULTS_RELDIR}/{BATCH_RESULT}",
            extract=lambda doc: _metric(doc, "events_per_sec"),
            tolerance=tolerance,
        )
    )
    for path in sorted(results_dir.glob("BENCH_*.json")):
        checks.append(
            Check(
                name=f"{path.stem.removeprefix('BENCH_')} events_per_sec",
                relpath=f"{RESULTS_RELDIR}/{path.name}",
                extract=lambda doc: _metric(doc, "runs", "0", "events_per_sec"),
                tolerance=tolerance,
            )
        )
    return checks


def _floor_blocks(doc: dict) -> typing.Iterator[typing.Tuple[str, dict]]:
    """Yield every ``(label, block)`` carrying a lockstep-batching floor.

    A floor block has ``acceptance_floor_speedup`` plus a ``runs`` dict
    with a ``serial`` row; it lives either at an artifact's top level
    (``BENCH_batch.json``) or nested under ``batch`` (the fig10
    contention-sweep artifact, whose top level belongs to the figure).
    """
    for label, node in (("", doc), ("batch", doc.get("batch"))):
        if (
            isinstance(node, dict)
            and "acceptance_floor_speedup" in node
            and isinstance(node.get("runs"), dict)
        ):
            yield label, node


def run_batch_floor_checks(
    results_dir: pathlib.Path,
) -> typing.List[typing.Tuple[str, str]]:
    """Absolute lockstep-batching floors, self-contained in the artifacts.

    Each batching bench records the serial oracle and every batched
    configuration in one floor block; the best batched row must keep an
    aggregate events/sec of at least ``acceptance_floor_speedup`` times
    the serial row.  Unlike the baseline-relative checks this can never
    rot by re-committing a slower figure — the floor rides along inside
    the artifact.
    """
    results: typing.List[typing.Tuple[str, str]] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            continue
        for label, block in _floor_blocks(doc):
            name = path.stem.removeprefix("BENCH_")
            if label:
                name = f"{name}.{label}"
            floor = _metric(block, "acceptance_floor_speedup")
            runs = typing.cast(dict, block["runs"])
            serial = _metric(runs, "serial", "events_per_sec")
            batched = max(
                (
                    _metric(typing.cast(dict, run), "events_per_sec") or 0.0
                    for key, run in runs.items()
                    if isinstance(run, dict) and key != "serial"
                ),
                default=0.0,
            )
            if floor is None or serial is None or serial <= 0 or batched <= 0:
                results.append(
                    ("skip", f"{name} floor: serial or batched rows absent")
                )
                continue
            speedup = batched / serial
            status = "ok" if speedup >= floor else "regression"
            results.append((status, (
                f"{name} floor: best batched {batched:,.0f} ev/s vs serial "
                f"{serial:,.0f} ev/s = {speedup:.2f}x (floor {floor:.0f}x)"
            )))
    if not results:
        results.append(
            ("skip", "batch floor: no artifact records one; run the benchmarks")
        )
    return results


def run_check(
    check: Check, rev: str, override_baseline: typing.Optional[float] = None
) -> typing.Tuple[str, str]:
    """Returns ``(status, message)``; status is ok/regression/skip."""
    current_path = _repo_root() / check.relpath
    if not current_path.exists():
        return "skip", f"{check.name}: no current result; run the benchmark first"
    try:
        current = check.extract(json.loads(current_path.read_text()))
    except ValueError:
        return "skip", f"{check.name}: current artifact is not valid JSON"
    if current is None:
        return "skip", f"{check.name}: metric absent from current artifact"

    if override_baseline is not None:
        baseline: typing.Optional[float] = override_baseline
    else:
        doc = committed_doc(check.relpath, rev)
        baseline = check.extract(doc) if doc is not None else None
    if baseline is None or baseline <= 0:
        return "skip", (
            f"{check.name}: no committed baseline at {rev} "
            f"(first run); current={current:,.4g} recorded"
        )

    if check.higher_is_better:
        floor = baseline * (1.0 - check.tolerance)
        bad = current < floor
        bound = f"floor={floor:,.4g}"
    else:
        ceiling = baseline * (1.0 + check.tolerance)
        bad = current > ceiling
        bound = f"ceiling={ceiling:,.4g}"
    status = "regression" if bad else "ok"
    return status, (
        f"{check.name}: current={current:,.4g} baseline={baseline:,.4g} "
        f"{bound} ({current / baseline:.2f}x, tolerance {check.tolerance:.0%})"
    )


def _drift_module():
    """Import :mod:`repro.obs.drift`, adding ``src/`` if not on the path."""
    try:
        from repro.obs import drift
    except ImportError:
        sys.path.insert(0, str(_repo_root() / "src"))
        try:
            from repro.obs import drift
        except ImportError:
            return None
    return drift


def run_drift_checks(
    results_dir: pathlib.Path, rev: str
) -> typing.List[typing.Tuple[str, str]]:
    """Channel-health drift of every working-tree artifact vs ``rev``.

    Returns ``(status, message)`` pairs in the same ok/regression/skip
    vocabulary as :func:`run_check`.  Artifacts without a ``channels``
    block on either side are silently fine — recording channel health is
    opt-in per benchmark.
    """
    drift = _drift_module()
    if drift is None:
        return [("skip", "channel drift: repro.obs.drift not importable")]
    results: typing.List[typing.Tuple[str, str]] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        name = path.stem.removeprefix("BENCH_")
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            continue
        current = drift.channels_of(doc)
        if not current:
            continue
        baseline = drift.channels_of(
            committed_doc(f"{RESULTS_RELDIR}/{path.name}", rev)
        )
        if not baseline:
            results.append(
                ("skip", f"{name} channels: no committed baseline at {rev}")
            )
            continue
        warnings = drift.channel_drift_warnings(current, baseline)
        if warnings:
            for warning in warnings:
                results.append(("regression", f"{name} {warning}"))
        else:
            results.append(
                ("ok", f"{name} channels: {len(current)} within baseline CIs")
            )
    return results


def main(argv: typing.Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional regression for throughput metrics "
             "(default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=DEFAULT_WALL_TOLERANCE,
        help="allowed fractional increase of the headline wall time "
             "(default 0.50 = 50%%)",
    )
    parser.add_argument(
        "--baseline", type=float, default=None,
        help=f"explicit baseline for the simulator-core {CORE_METRIC} "
             "check (default: the figure at HEAD)",
    )
    parser.add_argument(
        "--rev", default="HEAD",
        help="git revision to read baselines from (default HEAD)",
    )
    parser.add_argument(
        "--no-drift", action="store_true",
        help="skip the per-channel BER/bandwidth drift checks",
    )
    args = parser.parse_args(argv)

    results_dir = _repo_root() / RESULTS_RELDIR
    checks = build_checks(results_dir, args.tolerance, args.wall_tolerance)

    regressions = 0
    checked = 0
    for check in checks:
        override = (
            args.baseline
            if args.baseline is not None and CORE_METRIC in check.name
            else None
        )
        status, message = run_check(check, args.rev, override)
        label = {"ok": "ok", "regression": "REGRESSION", "skip": "skip"}[status]
        print(f"[{label}] {message}")
        if status == "regression":
            regressions += 1
        elif status == "ok":
            checked += 1

    for status, message in run_batch_floor_checks(results_dir):
        label = {"ok": "ok", "regression": "REGRESSION", "skip": "skip"}[status]
        print(f"[{label}] {message}")
        if status == "regression":
            regressions += 1
        elif status == "ok":
            checked += 1

    if not args.no_drift:
        for status, message in run_drift_checks(results_dir, args.rev):
            label = {"ok": "ok", "regression": "REGRESSION", "skip": "skip"}[
                status
            ]
            print(f"[{label}] {message}")
            if status == "regression":
                regressions += 1
            elif status == "ok":
                checked += 1

    if regressions:
        return 1
    if checked == 0:
        print("nothing could be checked; pass --baseline or commit a baseline")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
