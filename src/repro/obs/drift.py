"""Channel-health drift detection against committed bench baselines.

Two complementary detectors guard the paper's statistical claims:

* **z-score vs. committed baseline** (this module): a bench run's
  per-channel mean BER / bandwidth is compared against the numbers in
  the committed ``BENCH_<name>.json`` (read via ``git show``, the same
  trick ``check_bench_regression.py`` uses for wall time).  The
  committed confidence interval supplies the scale, so a channel whose
  BER rises by more than ``z * ci`` (plus an absolute floor for
  near-zero baselines) is flagged.
* **CUSUM within a sweep** (:class:`repro.obs.telemetry.Cusum`): an
  online detector over per-trial BER that catches mid-sweep shifts the
  aggregate mean would smear out.

Both surface as plain-text warnings: bench footers print them, the run
ledger records them, and ``check_bench_regression.py`` turns them into
failing checks.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import typing

#: Detection knobs: flag BER that rises more than ``Z * ci`` above the
#: baseline mean (but never for less than BER_FLOOR points, so noiseless
#: channels with ci=0 don't alarm on epsilon), and bandwidth that drops
#: more than BW_REL_DROP of baseline (again beyond ``Z * ci``).
Z_THRESHOLD = 3.0
BER_FLOOR_POINTS = 0.75
BW_REL_DROP = 0.10

ChannelHealth = typing.Mapping[str, object]


def _num(doc: ChannelHealth, key: str) -> typing.Optional[float]:
    value = doc.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def channel_drift_warnings(
    current: typing.Mapping[str, ChannelHealth],
    baseline: typing.Mapping[str, ChannelHealth],
    z_threshold: float = Z_THRESHOLD,
    ber_floor_points: float = BER_FLOOR_POINTS,
    bw_rel_drop: float = BW_REL_DROP,
) -> typing.List[str]:
    """Compare per-channel health dicts; one warning string per drift.

    Each side maps channel name -> ``{error_percent, error_ci?,
    bandwidth_kbps, bandwidth_ci?, ...}``.  Channels present on only one
    side are ignored (new sweep points are not drift).  Only harmful
    directions flag: BER up, bandwidth down.
    """
    warnings: typing.List[str] = []
    for channel in sorted(set(current) & set(baseline)):
        now, then = current[channel], baseline[channel]
        if not isinstance(now, typing.Mapping) or not isinstance(
            then, typing.Mapping
        ):
            continue
        ber_now, ber_then = _num(now, "error_percent"), _num(then, "error_percent")
        if ber_now is not None and ber_then is not None:
            ci = _num(then, "error_ci") or 0.0
            allowance = max(ber_floor_points, z_threshold * ci)
            if ber_now > ber_then + allowance:
                warnings.append(
                    f"{channel}: BER drift {ber_then:.2f}% -> {ber_now:.2f}% "
                    f"(allowance {allowance:.2f} points, z={z_threshold:g})"
                )
        bw_now, bw_then = (
            _num(now, "bandwidth_kbps"),
            _num(then, "bandwidth_kbps"),
        )
        if bw_now is not None and bw_then is not None and bw_then > 0:
            ci = _num(then, "bandwidth_ci") or 0.0
            floor = bw_then * (1.0 - bw_rel_drop) - z_threshold * ci
            if bw_now < floor:
                warnings.append(
                    f"{channel}: bandwidth drift {bw_then:.2f} -> "
                    f"{bw_now:.2f} kbps (floor {floor:.2f}, z={z_threshold:g})"
                )
    return warnings


def zscore(
    value: float, baseline_mean: float, baseline_scale: float
) -> float:
    """Signed z-score of ``value`` against a baseline mean and scale."""
    if baseline_scale <= 0:
        return 0.0
    return (value - baseline_mean) / baseline_scale


# -- committed-baseline plumbing ----------------------------------------


def committed_bench_doc(
    name: str,
    rev: str = "HEAD",
    repo_root: typing.Union[str, pathlib.Path, None] = None,
    relpath: typing.Optional[str] = None,
) -> typing.Optional[typing.Dict[str, object]]:
    """The committed ``BENCH_<name>.json`` at ``rev``, or None.

    Reads via ``git show`` so the working tree's regenerated artifact
    never masks the baseline.  Any git failure (no repo, file not
    committed yet) degrades to None — drift checks simply don't run.
    """
    relpath = relpath or f"benchmarks/results/BENCH_{name}.json"
    cmd = ["git", "show", f"{rev}:{relpath}"]
    try:
        blob = subprocess.run(
            cmd,
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            timeout=30,
            check=True,
        ).stdout
        doc = json.loads(blob.decode("utf-8"))
    except Exception:
        return None
    return doc if isinstance(doc, dict) else None


def channels_of(
    doc: typing.Optional[typing.Mapping[str, object]],
    workers: int = 0,
) -> typing.Optional[typing.Dict[str, ChannelHealth]]:
    """Extract the per-channel health dict from one BENCH doc.

    Channel health is recorded on the run entry for ``workers`` (the
    figure data is worker-count-invariant, so any entry carrying
    ``channels`` is an equally valid baseline — the requested worker
    count is preferred, then any other).
    """
    if not isinstance(doc, typing.Mapping):
        return None
    runs = doc.get("runs")
    if not isinstance(runs, typing.Mapping):
        return None
    candidates = [str(workers)] + sorted(k for k in runs if k != str(workers))
    for key in candidates:
        entry = runs.get(key)
        if isinstance(entry, typing.Mapping):
            channels = entry.get("channels")
            if isinstance(channels, typing.Mapping):
                return typing.cast(
                    typing.Dict[str, ChannelHealth], dict(channels)
                )
    return None


def committed_channels(
    name: str,
    rev: str = "HEAD",
    repo_root: typing.Union[str, pathlib.Path, None] = None,
    workers: int = 0,
) -> typing.Optional[typing.Dict[str, ChannelHealth]]:
    """Per-channel baseline from the committed BENCH doc, or None."""
    return channels_of(committed_bench_doc(name, rev, repo_root), workers)
