"""Generic parameter-sweep driver.

The figure harnesses hand-roll their loops; this utility generalizes the
pattern for downstream users exploring new operating points: a grid of
configurations, repeated seeded runs per point, aggregation with 95% CIs,
and graceful handling of dead channels (a mitigated or mis-tuned point
simply reports zero runs instead of aborting the sweep).

Trials execute through :class:`repro.exec.TrialExecutor`: serially by
default (``workers=0`` — no picklability requirements, the mode tests
use), or across a process pool with ``workers >= 1`` and optionally an
on-disk result cache.  The aggregates are bit-identical either way —
seeds are fixed up front and outcomes return in submission order.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.analysis.metrics import AggregateResult, aggregate_results
from repro.core.channel import ChannelResult

Params = typing.Dict[str, object]
RunFn = typing.Callable[[Params, int], ChannelResult]

if typing.TYPE_CHECKING:
    from repro.exec import ExecutionReport, TrialExecutor


@dataclasses.dataclass
class SweepPoint:
    """One grid point: its parameters and aggregated outcome."""

    params: Params
    aggregate: typing.Optional[AggregateResult]
    failures: int

    @property
    def alive(self) -> bool:
        return self.aggregate is not None


@dataclasses.dataclass
class SweepResult:
    """All grid points of one sweep."""

    points: typing.List[SweepPoint]
    #: Execution details (cache hits, wall time, merged sim census) when
    #: the sweep ran through a :class:`~repro.exec.TrialExecutor`.
    report: typing.Optional["ExecutionReport"] = None

    def best_by_error(self) -> SweepPoint:
        """The live point with the lowest mean error."""
        from repro.errors import ChannelProtocolError

        live = [p for p in self.points if p.alive]
        if not live:
            raise ChannelProtocolError("every sweep point was dead")
        return min(live, key=lambda p: p.aggregate.error_percent)  # type: ignore[union-attr]

    def param_keys(self) -> typing.List[str]:
        """Sorted union of parameter names across every point."""
        return sorted({key for point in self.points for key in point.params})

    def rows(self) -> typing.List[typing.Tuple[object, ...]]:
        """Table rows: parameter values, bandwidth, error (or 'dead')."""
        keys = self.param_keys()
        rows: typing.List[typing.Tuple[object, ...]] = []
        for point in self.points:
            values = tuple(point.params.get(key, "") for key in keys)
            if point.alive:
                aggregate = typing.cast(AggregateResult, point.aggregate)
                row = values + (
                    round(aggregate.bandwidth_kbps, 1),
                    round(aggregate.error_percent, 2),
                )
            else:
                row = values + ("dead", "dead")
            rows.append(row)
        return rows

    def header(self) -> typing.List[str]:
        return self.param_keys() + ["kb/s", "err %"]


def grid(**axes: typing.Sequence[object]) -> typing.List[Params]:
    """Cartesian product of named parameter axes, in a stable order."""
    names = sorted(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def run_sweep(
    run: RunFn,
    points: typing.Sequence[Params],
    seeds: typing.Sequence[int] = (1, 2, 3),
    workers: int = 0,
    cache_dir: typing.Optional[str] = None,
    executor: typing.Optional["TrialExecutor"] = None,
) -> SweepResult:
    """Evaluate ``run(params, seed)`` over the grid with repetitions.

    ``workers``/``cache_dir`` construct a default executor; pass
    ``executor`` to control timeouts, retries or cache policy directly.
    With ``workers >= 1`` the ``run`` callable and its params/results
    must be picklable (module-level functions, plain-data params).
    """
    from repro.exec import TrialExecutor, TrialSpec

    if executor is None:
        executor = TrialExecutor(workers=workers, cache=cache_dir)

    specs = [
        TrialSpec(fn=run, params=dict(params), seed=seed, tag=point_index)
        for point_index, params in enumerate(points)
        for seed in seeds
    ]
    report = executor.run(specs)

    out: typing.List[SweepPoint] = []
    n_seeds = len(seeds)
    for point_index, params in enumerate(points):
        chunk = report.outcomes[point_index * n_seeds : (point_index + 1) * n_seeds]
        results = [o.result for o in chunk if o.ok]
        failures = sum(1 for o in chunk if not o.ok)
        out.append(
            SweepPoint(
                params=dict(params),
                aggregate=aggregate_results(results) if results else None,
                failures=failures,
            )
        )
    return SweepResult(points=out, report=report)
