"""One fresh interpreter: set up, run one figure call, report on stdout.

Run by ``run.py``, never imported by it.  Prints ``READY`` once the
harness is set up (imports plus ``kaby_lake_model``), then one
``RESULT <json>`` line after the figure call::

    python3 figbench/child.py --setup-only
    python3 figbench/child.py --workload headline --seed 0 --call 0 [--trace] [--workers N]
"""

from __future__ import annotations

import argparse
import os
import sys

# Set-up under test: everything a user pays before the first figure call.
import repro.analysis.figures  # noqa: F401  (the import is what is timed)
from repro.config import kaby_lake_model
from repro.exec import TrialExecutor

kaby_lake_model(scale=16)
print("READY", flush=True)

import dataclasses  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import typing  # noqa: E402

from repro.core.channel import ChannelResult  # noqa: E402

import workloads  # noqa: E402


class TrialTimes:
    """Telemetry sink keeping each trial's host seconds by submission index."""

    label = "figbench"

    def __init__(self) -> None:
        self.wall: typing.Dict[int, float] = {}

    def handle(self, event: typing.Mapping[str, object]) -> None:
        if event.get("ev") == "trial.finish" and "wall_s" in event:
            self.wall[typing.cast(int, event["index"])] = typing.cast(float, event["wall_s"])

    def flush(self) -> None:
        pass


class CountingExecutor(TrialExecutor):
    """A ``TrialExecutor`` that keeps every run's specs, report and span."""

    def __init__(self, workers: int) -> None:
        self.times = TrialTimes()
        super().__init__(workers=workers, telemetry=self.times)  # type: ignore[arg-type]
        self.runs: typing.List[typing.Tuple[object, object, float, dict]] = []

    def run(self, specs):  # type: ignore[override]
        self.times.wall = {}
        start = time.perf_counter()
        report = super().run(specs)
        run_s = time.perf_counter() - start
        self.runs.append((list(specs), report, run_s, self.times.wall))
        return report


def summarise(executor: CountingExecutor) -> typing.Dict[str, float]:
    """Counts and timings of every executor run, read after the clock stopped."""
    out: typing.Dict[str, float] = {
        key: 0
        for key in (
            "trials", "trials_failed", "attempts", "run_s", "trial_s_sum",
            "trial_s_max", "payload_bytes", "events", "engines", "llc_bits",
            "llc_bit_errors", "llc_trial_s", "contention_bits",
            "contention_trial_s", "contention_transmits", "frame_attempts",
            "first_try",
        )
    }
    for specs, report, run_s, walls in executor.runs:
        out["run_s"] += run_s
        out["events"] += report.sim.get("events_executed", 0)
        out["engines"] += report.sim.get("engines_created", 0)
        for spec, outcome in zip(specs, report.outcomes):
            out["trials"] += 1
            out["trials_failed"] += 0 if outcome.ok else 1
            out["attempts"] += outcome.attempts
            wall = walls.get(outcome.index, 0.0)
            out["trial_s_sum"] += wall
            out["trial_s_max"] = max(out["trial_s_max"], wall)
            out["payload_bytes"] += len(pickle.dumps(spec.params)) + len(
                pickle.dumps(outcome.result)
            )
            result = outcome.result
            if not isinstance(result, ChannelResult):
                continue
            errors = round(result.error_rate * result.n_bits)
            if "frame_attempts" in result.meta:
                attempts = typing.cast(int, result.meta["frame_attempts"])
                out["contention_bits"] += result.n_bits
                out["contention_trial_s"] += wall
                out["contention_transmits"] += 1
                out["frame_attempts"] += attempts
                out["first_try"] += 1 if attempts == 1 else 0
            else:
                out["llc_bits"] += result.n_bits
                out["llc_bit_errors"] += errors
                out["llc_trial_s"] += wall
    return out


def rusage_totals() -> typing.Tuple[float, float]:
    """(CPU seconds, peak RSS in KiB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--call", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spool", default="")
    args = parser.parse_args(argv)
    if args.setup_only:
        return 0
    workload = workloads.WORKLOADS[args.workload]
    if args.workers is not None:
        workload = dataclasses.replace(
            workload, kwargs={**workload.kwargs, "workers": args.workers}
        )
    executor = CountingExecutor(workload.workers)

    tracer = profile = None
    if args.trace:
        import cProfile

        import tracing

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        tracer = tracing.Tracer(src_root, args.spool)
        tracer.install()
        profile = cProfile.Profile()

    cpu0, _ = rusage_totals()
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    rows = workload.call(args.seed, args.call, executor=executor)
    if profile is not None:
        profile.disable()
    wall_s = time.perf_counter() - start
    cpu1, peak_kb = rusage_totals()

    result: typing.Dict[str, object] = {
        "wall_s": wall_s,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kb / 1024.0,
        "rows": rows,
        "exec": summarise(executor),
    }
    if workload.seed_rows is not None:
        result["seed_rows"] = workload.seed_rows([
            (spec, outcome)
            for specs, report, _, _ in executor.runs
            for spec, outcome in zip(specs, report.outcomes)  # type: ignore[attr-defined]
        ])
    if tracer is not None and profile is not None:
        tracer.uninstall()
        tracer.harvest_socs()
        parent_layers = tracing.fold_profile(profile, tracer.src_root)
        result["trace"] = {
            "parent_layers": parent_layers,
            "parent_spans": tracer.spans.as_dict(),
            "parent_soc": dict(tracer.soc_totals),
            "workers": tracer.worker_records(),
        }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter finalisation.  The executor has already joined
    # every pool worker, but multiprocessing's exit handlers join the
    # feeder thread of the executor's telemetry queue, which blocks
    # forever when ``Pool.terminate`` killed a worker while it held the
    # queue's write lock.  That hang comes after the measured call and
    # would only turn a finished, checked call into a timeout.
    os._exit(code)
