"""Ledger records left by the retired analytical model tier.

The closed-form model package is gone, but ledgers written while it
existed carry a ``predictions`` block per record; they must keep
validating and reading back unchanged.
"""

from repro.obs.ledger import (
    append_record, make_record, read_records, validate_record,
)


def test_ledger_accepts_predictions_block(tmp_path):
    record = make_record(
        name="prescreen", kind="bench", run={"wall_s": 1.0},
        fingerprint="f" * 12,
    )
    record["predictions"] = {"wg2": {"predicted_bandwidth_kbps": 101.0}}
    assert validate_record(record) == []
    path = tmp_path / "ledger.jsonl"
    append_record(path, record)
    records, problems = read_records(path)
    assert problems == []
    (loaded,) = records
    assert loaded["predictions"] == {
        "wg2": {"predicted_bandwidth_kbps": 101.0}
    }
    bad = dict(record)
    bad["predictions"] = "not-a-dict"
    assert validate_record(bad)
