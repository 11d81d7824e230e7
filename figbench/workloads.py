"""The benchmark's workloads: one paper-figure call each.

A workload's inputs are a function of the benchmark seed and the call
index only.  ``figure_seeds`` derives the figure's seed tuple from them,
``Workload.call`` runs the figure harness from
:mod:`repro.analysis.figures`, and ``check_rows`` /
``fidelity`` judge the figure's ``rows()`` against the reference digest
and against the paper.  Nothing here times anything; ``child.py`` does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import typing

MB = 1024 * 1024

Row = typing.Sequence[object]

#: The seed a run uses when ``--seed`` is not given; the rows of its
#: first figure call must hash to the workload's ``reference_digest``.
DEFAULT_SEED = 0
#: Figure calls one benchmark seed can make, each on its own inputs.
CALLS_PER_SEED = 1000
#: The paper's error bar for a working fig10 point (below 2%).
WORKING_BELOW_PCT = 2.0


@dataclasses.dataclass(frozen=True)
class PaperPoint:
    """One operating point the figure's ``paper`` dict quotes numbers for.

    ``key`` is the leading columns of the matching ``rows()`` entry;
    either reference may be ``None`` when the paper quotes only the other.
    """

    key: typing.Tuple[object, ...]
    kbps: typing.Optional[float]
    error_pct: typing.Optional[float]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    figure: str
    #: Length of the figure's seed tuple.
    seeds_per_call: int
    kwargs: typing.Mapping[str, object]
    #: Index of the bandwidth and error columns in a row.
    kbps_col: int
    error_col: int
    points: typing.Tuple[PaperPoint, ...]
    #: sha256 of call 0's ``rows()`` at ``DEFAULT_SEED``, taken from the
    #: code the benchmark was committed with.
    reference_digest: str
    shape_check: typing.Callable[[typing.Sequence[Row]], typing.List[str]]
    #: The figure's rows at each of the call's figure seeds alone, from
    #: the call's ``(TrialSpec, TrialOutcome)`` pairs; ``None`` when a
    #: call has one figure seed, so its rows are already per seed.
    seed_rows: typing.Optional[
        typing.Callable[[typing.Sequence[typing.Tuple[typing.Any, typing.Any]]],
                        typing.List[typing.List[Row]]]
    ] = None

    def call(self, seed: int, call: int, executor: object = None) -> typing.List[Row]:
        """Run figure call ``call`` of ``seed``; returns its rows as JSON values."""
        from repro.analysis import figures

        fn = getattr(figures, self.figure)
        seeds = figure_seeds(seed, call, self.seeds_per_call)
        data = fn(seeds=seeds, executor=executor, **self.kwargs)
        return json.loads(json.dumps(data.rows()))

    @property
    def workers(self) -> int:
        return typing.cast(int, self.kwargs.get("workers", 0))


def figure_seeds(seed: int, call: int, count: int) -> typing.Tuple[int, ...]:
    """The figure's seed tuple for figure call ``call`` of a run with ``seed``.

    Seed ``n`` owns calls ``n*CALLS_PER_SEED ...`` and each call owns
    ``count`` consecutive figure seeds, so no two (seed, call) pairs
    share a figure seed.  Seed 0, call 0 maps to ``(1, 2, ..., count)``,
    the figures' own default seeds.
    """
    if seed < 0:
        raise ValueError(f"benchmark seed must be >= 0, got {seed}")
    if not 0 <= call < CALLS_PER_SEED:
        raise ValueError(f"call must be in [0, {CALLS_PER_SEED}), got {call}")
    base = 1 + (seed * CALLS_PER_SEED + call) * count
    return tuple(range(base, base + count))


def rows_digest(rows: typing.Sequence[Row]) -> str:
    return hashlib.sha256(
        json.dumps([list(r) for r in rows], ensure_ascii=True).encode()
    ).hexdigest()


def check_rows(
    workload: Workload, seed: int, call: int, rows: typing.Sequence[Row]
) -> typing.List[str]:
    """Every reason ``rows`` is wrong for call ``call`` of ``seed``; empty when correct."""
    problems = list(workload.shape_check(rows))
    for point in workload.points:
        if _find(rows, point.key) is None:
            problems.append(f"no row for paper point {point.key}")
    if (seed, call) == (DEFAULT_SEED, 0) and rows_digest(rows) != workload.reference_digest:
        problems.append(
            f"rows digest {rows_digest(rows)[:16]} != reference "
            f"{workload.reference_digest[:16]} at the default seed"
        )
    return problems


def fidelity(
    workload: Workload, rows: typing.Sequence[Row]
) -> typing.Dict[str, float]:
    """``bw_gap_pct`` and ``ber_gap_pts`` against the paper's quoted points.

    The bandwidth gap is the mean relative distance over points with a
    quoted bandwidth, in percent; the error gap is the mean absolute
    distance in percentage points over points with a quoted error rate.
    """
    bw: typing.List[float] = []
    ber: typing.List[float] = []
    for point in workload.points:
        row = _find(rows, point.key)
        if row is None:
            continue
        if point.kbps is not None:
            kbps = float(typing.cast(float, row[workload.kbps_col]))
            bw.append(100.0 * abs(kbps - point.kbps) / point.kbps)
        if point.error_pct is not None:
            err = float(typing.cast(float, row[workload.error_col]))
            ber.append(abs(err - point.error_pct))
    return {
        "bw_gap_pct": statistics.fmean(bw) if bw else float("nan"),
        "ber_gap_pts": statistics.fmean(ber) if ber else float("nan"),
    }


def fidelity_rows(workload: Workload, result: typing.Mapping[str, typing.Any]) -> typing.List[typing.Sequence[Row]]:
    """The rows fidelity is judged on: one set per figure seed of the call.

    A call's rows average its seeds, and a paper point's error rate then
    moves in coarse steps with each flipped bit of a short payload; the
    median over single-seed figures is what keeps the fidelity metrics
    steady across benchmark seeds.
    """
    if workload.seed_rows is None:
        return [result["rows"]]
    return list(result["seed_rows"])


def _find(rows: typing.Sequence[Row], key: typing.Sequence[object]) -> typing.Optional[Row]:
    for row in rows:
        if list(row[: len(key)]) == list(key):
            return row
    return None


# ----------------------------------------------------------------------
# Shape claims: what the committed artifacts satisfy, held on every input.


def _headline_shape(rows: typing.Sequence[Row]) -> typing.List[str]:
    by_name = {row[0]: row for row in rows}
    llc, ring = by_name.get("llc-prime+probe"), by_name.get("ring-contention")
    if llc is None or ring is None:
        return [f"headline rows incomplete: {sorted(map(str, by_name))}"]
    if not float(ring[1]) > float(llc[1]) > 0:  # type: ignore[arg-type]
        return [
            f"contention bandwidth {ring[1]} kb/s must exceed LLC "
            f"bandwidth {llc[1]} kb/s"
        ]
    return []


def _headline_seed_rows(
    trials: typing.Sequence[typing.Tuple[typing.Any, typing.Any]]
) -> typing.List[typing.List[Row]]:
    """``HeadlineData.rows()`` at each figure seed, built from its two transmits."""
    from repro.analysis.figures import HeadlineData
    from repro.analysis.metrics import aggregate_results
    from repro.core.channel import ChannelResult

    by_seed: typing.Dict[int, typing.Dict[str, ChannelResult]] = {}
    for spec, outcome in trials:
        result = outcome.result
        if isinstance(result, ChannelResult):
            # As in ``child.summarise``: only contention transmits frame.
            channel = "contention" if "frame_attempts" in result.meta else "llc"
            by_seed.setdefault(spec.seed, {})[channel] = result
    return [
        json.loads(json.dumps(HeadlineData(
            llc=aggregate_results([pair["llc"]]),
            contention=aggregate_results([pair["contention"]]),
        ).rows()))
        for _, pair in sorted(by_seed.items())
        if len(pair) == 2
    ]


def _fig10_shape(rows: typing.Sequence[Row]) -> typing.List[str]:
    errors = [float(typing.cast(float, r[3])) for r in rows]
    # Paper: the best point stays below 2% error.
    if not errors or min(errors) >= WORKING_BELOW_PCT:
        return [f"no fig10 point is below {WORKING_BELOW_PCT}% error: {errors}"]
    # Paper: bandwidth sits in a narrow band across the swept space.  A
    # point whose decode slipped charges only the span it did decode, so
    # its "bandwidth" is no bandwidth (the committed 8 WG / 2 MB point
    # reads 438 kb/s at 26% error): the band is asked of working points.
    kbps = [
        float(typing.cast(float, r[2]))
        for r, err in zip(rows, errors)
        if err < WORKING_BELOW_PCT
    ]
    centre = statistics.median(kbps)
    if not all(0.9 * centre <= k <= 1.1 * centre for k in kbps):
        return [f"bandwidth of working points not flat: {kbps}"]
    return []


# ----------------------------------------------------------------------
# The workloads.  Paper points transcribe each figure's ``paper`` dict;
# a test checks every number still appears there.

WORKLOADS: typing.Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="headline",
            figure="headline",
            seeds_per_call=3,
            kwargs={"n_bits": 32, "workers": 0},
            kbps_col=1,
            error_col=2,
            points=(
                PaperPoint(("llc-prime+probe",), 120.0, 2.0),
                PaperPoint(("ring-contention",), 400.0, 0.8),
            ),
            reference_digest="61c45965ee13e413dfe0e0d35b095cbc6dfb28551dabaf9c2902b3bc766d716a",
            shape_check=_headline_shape,
            seed_rows=_headline_seed_rows,
        ),
        Workload(
            name="fig10-pool",
            figure="fig10_contention_sweep",
            seeds_per_call=1,
            kwargs={
                "workgroup_counts": (1, 2, 4, 8),
                "gpu_buffer_sizes": (1 * MB, 2 * MB),
                "n_bits": 16,
                "workers": 2,
            },
            kbps_col=2,
            error_col=3,
            # "390-402 kb/s across the swept space": the band's middle at
            # every point; "0.82% error at 2 MB GPU buffer, 2 work-groups".
            points=tuple(
                PaperPoint((wg, size), 396.0, 0.82 if (wg, size) == (2, "2 MB") else None)
                for size in ("1 MB", "2 MB")
                for wg in (1, 2, 4, 8)
            ),
            reference_digest="5e4f8061f306902c385bda069423a5bb6256e1d9be0b205063985a894046d541",
            shape_check=_fig10_shape,
        ),
    )
}
