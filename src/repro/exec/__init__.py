"""repro.exec — parallel trial execution with deterministic fan-out.

Every figure in the paper aggregates many independent seeded trials; this
package runs them fast without changing a single simulated bit:

* :class:`TrialExecutor` — serial (``workers=0``, the default) or
  process-pool execution of :class:`TrialSpec` lists, with per-trial
  timeout/retry degradation and submission-order outcomes;
* :class:`ResultCache` — content-addressed on-disk cache keyed by
  ``(config hash, code fingerprint, seed)``;
* :func:`derive_seed` / :func:`fan_out_seeds` — deterministic seed
  derivation, independent of worker count and scheduling order;
* ``python -m repro.exec`` — a CLI that runs a packaged sweep with
  ``--workers/--cache-dir/--no-cache`` and prints a cache hit/miss
  summary.

See DESIGN.md ("Parallel execution & caching") for the determinism and
invalidation contract.
"""

from repro.exec.cache import CacheStats, ResultCache
from repro.exec.executor import (
    CRASH,
    DEAD,
    OK,
    TIMEOUT,
    ExecutionReport,
    PrefixSpec,
    TrialExecutor,
    TrialOutcome,
    TrialSpec,
    default_workers,
    run_one_trial,
)
from repro.exec.fingerprint import code_fingerprint
from repro.exec.seeds import (
    canonical_repr,
    derive_seed,
    fan_out_seeds,
    stable_digest,
)

__all__ = [
    "CacheStats",
    "CRASH",
    "DEAD",
    "ExecutionReport",
    "OK",
    "PrefixSpec",
    "ResultCache",
    "TIMEOUT",
    "TrialExecutor",
    "TrialOutcome",
    "TrialSpec",
    "canonical_repr",
    "code_fingerprint",
    "default_workers",
    "derive_seed",
    "fan_out_seeds",
    "run_one_trial",
    "stable_digest",
]
