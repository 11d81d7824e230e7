"""Figure-regeneration benchmark: host time, set-up and paper fidelity.

Run from the repository root::

    python3 figbench/run.py --workload headline --seed 0 --seconds 45 --trace 0

Every timed figure call runs in a fresh interpreter (``child.py``), so
process-level memos never make a later call measure a warm program.
With ``--trace 0`` the run repeats the call for ``--seconds`` and prints
the end-to-end metrics as medians; with ``--trace 1`` it runs the call
untraced, traced and at the other worker count, and prints the per-layer
metrics.  The last stdout line is the JSON result; the exit code is 0
only when a result was printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import typing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
#: Scratch space this run owns inside the checkout, removed at exit.
SCRATCH = os.path.join(ROOT, ".figbench", f"run-{os.getpid()}")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Every timed run makes at least this many figure calls, however short
#: ``--seconds`` is.  Call ``i`` runs on its own inputs (see
#: ``workloads.figure_seeds``), and the fidelity metrics are the median
#: over the single-seed figures of exactly these first calls, so they do
#: not depend on speed.
MIN_CALLS = 5
#: Extra set-up-only interpreters per figure call, each timed.
SETUP_PROBES_PER_CALL = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "bw_gap_pct": "%",
    "ber_gap_pts": "pts",
}


class ChildFailed(RuntimeError):
    pass


def child_env() -> typing.Dict[str, str]:
    """The children's environment: the program's defaults, scratch inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["TMPDIR"] = os.path.join(SCRATCH, "tmp")
    return env


def spawn(args: typing.Sequence[str]) -> typing.Tuple[float, typing.Optional[dict]]:
    """Run one child; returns (set-up seconds, parsed result or None).

    The child's stderr goes to a file, copied to this run's stderr once
    the child has ended; a failed child's message quotes its tail.
    """
    errors = tempfile.TemporaryFile("w+", dir=SCRATCH)
    with errors:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args],
            stdout=subprocess.PIPE,
            stderr=errors,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        stdout = typing.cast(typing.IO[str], proc.stdout)
        ready = out = ""
        setup_s = 0.0
        timed_out = True
        try:
            if select.select([stdout], [], [], CHILD_TIMEOUT_S)[0]:
                ready = stdout.readline()
                setup_s = time.perf_counter() - start
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
                timed_out = False
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        errors.seek(0)
        stderr = errors.read()
    sys.stderr.write(stderr)
    if timed_out or ready.strip() != "READY" or proc.returncode != 0:
        why = (
            f"did not end within {CHILD_TIMEOUT_S:.0f} s"
            if timed_out
            else f"exited {proc.returncode}"
        )
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"child {list(args)} {why}" + (f": {tail}" if tail else ""))
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup_s, result


def figure_call(
    workload: str, seed: int, call: int, extra: typing.Sequence[str] = ()
) -> typing.Tuple[float, dict]:
    setup_s, result = spawn(
        ["--workload", workload, "--seed", str(seed), "--call", str(call), *extra]
    )
    if result is None:
        raise ChildFailed(f"{workload} child printed no result")
    return setup_s, result


def prepare() -> None:
    """Compile the bytecode and pay the first interpreter start untimed."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ChildFailed(f"no program sources under {SRC}")
    os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)
    for path in (SRC, HERE):
        if not compileall.compile_dir(path, quiet=1):
            raise ChildFailed(f"bytecode compilation failed under {path}")
    spawn(["--setup-only"])


def judge(
    workload: workloads.Workload,
    seed: int,
    calls: typing.Sequence[typing.Tuple[int, dict]],
) -> typing.Tuple[int, int, typing.List[str]]:
    """(trials attempted, trials failed, problems) over ``(call, result)`` pairs.

    Results of the same call must print the same rows, and every result's
    rows must pass the workload's checks; a result that does not counts
    all its trials failed.
    """
    attempted = failed = 0
    problems: typing.List[str] = []
    first_rows: typing.Dict[int, object] = {}
    for call, result in calls:
        trials = int(result["exec"]["trials"])
        attempted += trials
        bad = workloads.check_rows(workload, seed, call, result["rows"])
        seed_sets = len(workloads.fidelity_rows(workload, result))
        if workload.seed_rows is not None and seed_sets != workload.seeds_per_call:
            bad.append(f"{seed_sets} single-seed row sets, not {workload.seeds_per_call}")
        if first_rows.setdefault(call, result["rows"]) != result["rows"]:
            bad.append("rows differ from an earlier result of the same call")
        if bad:
            failed += trials
            problems.extend(f"call {call}: {p}" for p in bad)
        else:
            failed += int(result["exec"]["trials_failed"])
    return attempted, failed, problems


def timed_run(workload: workloads.Workload, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    setups: typing.List[float] = []
    calls: typing.List[dict] = []
    while len(calls) < workloads.CALLS_PER_SEED:
        for _ in range(SETUP_PROBES_PER_CALL):
            setups.append(spawn(["--setup-only"])[0])
        call_start = time.perf_counter()
        setup_s, result = figure_call(workload.name, seed, len(calls))
        setups.append(setup_s)
        calls.append(result)
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - call_start
        if len(calls) >= MIN_CALLS and elapsed + last > seconds:
            break
    attempted, failed, problems = judge(workload, seed, list(enumerate(calls)))
    fidelity = [
        workloads.fidelity(workload, rows)
        for c in calls[:MIN_CALLS]
        for rows in workloads.fidelity_rows(workload, c)
    ]
    values = {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        **{
            name: statistics.median(f[name] for f in fidelity)
            for name in fidelity[0]
        },
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
        "samples": f"{len(calls)} figure calls, {len(setups)} set-ups",
    }


def traced_run(workload: workloads.Workload, seed: int) -> dict:
    other_workers = 0 if workload.workers else 2
    spool = os.path.join(SCRATCH, f"spool-{os.getpid()}")
    _, plain = figure_call(workload.name, seed, 0)
    _, traced = figure_call(workload.name, seed, 0, ["--trace", "--spool", spool])
    _, other = figure_call(workload.name, seed, 0, ["--workers", str(other_workers)])
    # One input three ways: traced or not, at either worker count, the
    # rows must agree bit for bit.
    attempted, failed, problems = judge(
        workload, seed, [(0, plain), (0, traced), (0, other)]
    )
    metrics = tracing.per_layer_metrics(
        workload.workers, plain, traced, other, other_workers
    )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = workloads.WORKLOADS[args.workload]
    # A terminated run still stops its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        prepare()
        if args.trace:
            outcome = traced_run(workload, args.seed)
        else:
            outcome = timed_run(workload, args.seed, args.seconds)
    except (ChildFailed, OSError) as exc:
        print(f"figbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(SCRATCH))
        except OSError:
            pass  # another run still owns it
    for problem in outcome.pop("problems"):
        print(f"figbench: check failed: {problem}", file=sys.stderr)
    if "samples" in outcome:
        print(f"figbench: {outcome.pop('samples')}", file=sys.stderr)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
