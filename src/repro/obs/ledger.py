"""Append-only JSONL run ledger: provenance for every figure and sweep.

The committed ``BENCH_*.json`` artifacts state *numbers*; the ledger
states *where they came from*.  Every figure, bench or sweep appends one
JSON record — schema version, run name/kind, UTC timestamp, the code
fingerprint the run executed under, config digest, seed spec, the run
record (wall time, events/sec, cache/checkpoint counters, per-channel
health) and any drift warnings — to a JSON-Lines file that is only ever
appended to, so the history of a working tree's runs is reconstructible
after the fact.

Query with ``python -m repro.obs ledger`` (see ``__main__``).  The
default path is ``benchmarks/results/LEDGER.jsonl`` relative to the
current directory; override (or disable with ``0``/``off``) via
``REPRO_LEDGER``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import typing

from repro.errors import ObservabilityError

#: Bump when a record's required shape changes.
LEDGER_SCHEMA = 1

ENV_LEDGER = "REPRO_LEDGER"
_OFF = ("0", "off", "none", "false")

#: field name -> required type(s); ``validate_record`` enforces these.
REQUIRED_FIELDS: typing.Dict[str, typing.Tuple[type, ...]] = {
    "schema": (int,),
    "name": (str,),
    "kind": (str,),
    "ts": (int, float),
    "fingerprint": (str,),
    "run": (dict,),
}

_OPTIONAL_FIELDS: typing.Dict[str, typing.Tuple[type, ...]] = {
    "config_digest": (str,),
    "seeds": (dict, list, int, str),
    "channels": (dict,),
    "metrics": (dict,),
    "warnings": (list,),
    "argv": (list,),
    #: Written by the retired analytical model tier; ledgers on disk
    #: still carry it, so it stays type-checked.
    "predictions": (dict,),
}


def default_ledger_path(
    environ: typing.Optional[typing.Mapping[str, str]] = None,
) -> typing.Optional[pathlib.Path]:
    """Resolve the ledger path from ``REPRO_LEDGER`` (None = disabled)."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_LEDGER, "").strip()
    if raw.lower() in _OFF:
        return None
    if raw:
        return pathlib.Path(raw)
    return pathlib.Path("benchmarks") / "results" / "LEDGER.jsonl"


def make_record(
    name: str,
    kind: str,
    run: typing.Mapping[str, object],
    config_digest: typing.Optional[str] = None,
    seeds: typing.Optional[object] = None,
    channels: typing.Optional[typing.Mapping[str, object]] = None,
    metrics: typing.Optional[typing.Mapping[str, object]] = None,
    warnings: typing.Sequence[str] = (),
    fingerprint: typing.Optional[str] = None,
    argv: typing.Optional[typing.Sequence[str]] = None,
) -> typing.Dict[str, object]:
    """Assemble one schema-valid ledger record (stamps time/fingerprint)."""
    if fingerprint is None:
        from repro.exec.fingerprint import code_fingerprint

        fingerprint = code_fingerprint()
    record: typing.Dict[str, object] = {
        "schema": LEDGER_SCHEMA,
        "name": name,
        "kind": kind,
        "ts": round(time.time(), 3),
        "fingerprint": fingerprint,
        "run": dict(run),
    }
    if config_digest is not None:
        record["config_digest"] = config_digest
    if seeds is not None:
        record["seeds"] = seeds
    if channels:
        record["channels"] = {k: v for k, v in channels.items()}
    if metrics:
        record["metrics"] = dict(metrics)
    if warnings:
        record["warnings"] = list(warnings)
    if argv is not None:
        record["argv"] = list(argv)
    return record


def validate_record(record: object) -> typing.List[str]:
    """Schema problems with one record; empty list means valid."""
    if not isinstance(record, dict):
        return ["record is not an object"]
    problems = []
    for field, types in REQUIRED_FIELDS.items():
        if field not in record:
            problems.append(f"missing required field {field!r}")
        elif not isinstance(record[field], types) or isinstance(
            record[field], bool
        ):
            problems.append(
                f"field {field!r} has type {type(record[field]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if isinstance(record.get("schema"), int) and record["schema"] > LEDGER_SCHEMA:
        problems.append(
            f"record schema {record['schema']} is newer than "
            f"supported {LEDGER_SCHEMA}"
        )
    for field, types in _OPTIONAL_FIELDS.items():
        if field in record and not isinstance(record[field], types):
            problems.append(
                f"field {field!r} has type {type(record[field]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    return problems


def append_record(
    path: typing.Union[str, os.PathLike],
    record: typing.Mapping[str, object],
) -> typing.Dict[str, object]:
    """Validate and append one record; returns the record appended."""
    doc = dict(record)
    problems = validate_record(doc)
    if problems:
        raise ObservabilityError(
            "refusing to append invalid ledger record: " + "; ".join(problems)
        )
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(doc, sort_keys=True, default=str)
    with open(target, "a", encoding="utf-8") as fileobj:
        fileobj.write(line + "\n")
    return doc


def read_records(
    path: typing.Union[str, os.PathLike],
    name: typing.Optional[str] = None,
    kind: typing.Optional[str] = None,
    last: typing.Optional[int] = None,
) -> typing.Tuple[typing.List[typing.Dict[str, object]], typing.List[str]]:
    """Parse the ledger; returns ``(records, problems)``.

    Malformed lines and schema-invalid records are reported in
    ``problems`` (with line numbers) rather than raised, so one bad line
    never hides the rest of the history.  Filters apply before ``last``.
    """
    records: typing.List[typing.Dict[str, object]] = []
    problems: typing.List[str] = []
    target = pathlib.Path(path)
    try:
        lines = target.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return [], [f"ledger not found: {target}"]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {lineno}: unparsable JSON ({exc})")
            continue
        bad = validate_record(record)
        if bad:
            problems.append(f"line {lineno}: {'; '.join(bad)}")
            continue
        if name is not None and record.get("name") != name:
            continue
        if kind is not None and record.get("kind") != kind:
            continue
        records.append(record)
    if last is not None and last >= 0:
        records = records[-last:] if last else []
    return records, problems


def format_record(record: typing.Mapping[str, object]) -> str:
    """One human-readable ledger line for the CLI table."""
    ts = typing.cast(float, record.get("ts", 0))
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))
    run = typing.cast(typing.Dict[str, object], record.get("run", {}))
    fingerprint = str(record.get("fingerprint", ""))[:12]
    parts = [
        stamp,
        f"{record.get('kind', '?')}:{record.get('name', '?')}",
        f"fp={fingerprint}",
        f"wall={run.get('wall_s', '?')}s",
        f"ev/s={run.get('events_per_sec', '?')}",
    ]
    if "engine" in run:
        tier = run["engine"]
        if "batch_width" in run:
            tier = f"{tier}x{run['batch_width']}"
        if "batch_width_source" in run:
            tier = f"{tier}({run['batch_width_source']})"
        parts.append(f"engine={tier}")
    warnings = record.get("warnings")
    if isinstance(warnings, list) and warnings:
        parts.append(f"drift!={len(warnings)}")
    return "  ".join(parts)
