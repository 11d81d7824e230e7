"""The ring interconnect between CPU cores, the iGPU and the LLC slices.

The ring is the contention domain of the paper's second covert channel
(§IV): when both components stream LLC traffic, each transfer queues behind
the other side's and the CPU observes its access latency rise by T_OV.
We model the shared medium as a single FIFO resource; a cache-line
transfer occupies it for ``slots_per_line x slot_cycles`` ring-clock
cycles, while the propagation latency (``traverse_cycles`` each way) does
not occupy the shared resource.

The ring optionally enforces a time-division (TDM) schedule between the
``cpu`` and ``gpu`` domains — the §VI traffic-isolation mitigation.
"""

from __future__ import annotations

import typing

from repro.config import ClockConfig, RingConfig
from repro.errors import ConfigError
from repro.obs.recorder import recorder as _recorder
from repro.sim import fastpath as _fastpath
from repro.sim.engine import Engine
from repro.sim.resources import FifoResource

Domain = str  # "cpu" or "gpu"


class TdmSchedule:
    """A fixed two-phase time-division schedule over the ring.

    The period is split into a CPU window followed by a GPU window; a
    domain may only begin a transfer inside its own window.
    """

    def __init__(self, period_fs: int, cpu_share: float = 0.5) -> None:
        if period_fs <= 0:
            raise ConfigError("TDM period must be positive")
        if not 0.0 < cpu_share < 1.0:
            raise ConfigError("TDM cpu_share must be in (0, 1)")
        self.period_fs = period_fs
        self.cpu_window_fs = int(period_fs * cpu_share)

    def wait_fs(self, domain: Domain, now_fs: int) -> int:
        """Delay before ``domain`` may begin a transfer at time ``now_fs``."""
        phase = now_fs % self.period_fs
        if domain == "cpu":
            if phase < self.cpu_window_fs:
                return 0
            return self.period_fs - phase
        if phase >= self.cpu_window_fs:
            return 0
        return self.cpu_window_fs - phase


class Ring:
    """Shared ring bus with per-domain accounting and optional TDM."""

    def __init__(self, engine: Engine, config: RingConfig, clock: ClockConfig) -> None:
        config.validate()
        self.engine = engine
        self.config = config
        self.clock = clock
        self._resource = FifoResource(engine, name="ring")
        self.tdm: typing.Optional[TdmSchedule] = None
        self.transfers: typing.Dict[Domain, int] = {"cpu": 0, "gpu": 0}
        self.waited_fs: typing.Dict[Domain, int] = {"cpu": 0, "gpu": 0}
        # Occupancy per payload size, computed on first use: every access
        # path books the same line-sized transfer.
        self._holds: typing.Dict[int, int] = {}
        # Resolved once; `None` keeps transfer()'s disabled path to one check.
        self._trace = _recorder.sink_for("ring.hop")
        # Sampled at construction: one ring is consistently ledger-mode
        # (reserve) or consistently event-mode (occupy) for its lifetime.
        self._fast = _fastpath.enabled()

    @property
    def traverse_fs(self) -> int:
        """One-way propagation latency (does not occupy the ring)."""
        return self.clock.cycles_fs(self.config.traverse_cycles)

    def hold_fs(self, payload_slots: int) -> int:
        """Occupancy time for a transfer of ``payload_slots`` ring slots."""
        return self.clock.cycles_fs(payload_slots * self.config.slot_cycles)

    def slots_for_line(self, line_bytes: int) -> int:
        """Ring slots needed to move one cache line plus its request."""
        return 1 + self.config.slots_per_line(line_bytes)

    def transfer(
        self, payload_slots: int, domain: Domain
    ) -> typing.Generator[object, object, int]:
        """Occupy the ring for a transfer; returns queueing delay in fs.

        Composable with ``yield from``.  The returned value is the
        contention component of the requester's latency (T_OV in Eq. (3)).
        On a fast-path ring the occupancy goes through the reservation
        ledger (one coalesced yield); otherwise through the event-mode
        FIFO.  Both orderings are FIFO by request time, so the waits —
        and all accounting — are identical.
        """
        if self._fast:
            return self._transfer_ledger(payload_slots, domain)
        return self._transfer_event(payload_slots, domain)

    def _transfer_event(
        self, payload_slots: int, domain: Domain
    ) -> typing.Generator[object, object, int]:
        if self.tdm is not None:
            tdm_wait = self.tdm.wait_fs(domain, self.engine.now)
            if tdm_wait:
                yield tdm_wait
        waited = yield from self._resource.occupy(self.hold_fs(payload_slots))
        # `.get` keeps the accounting open to auxiliary domains ("fault"
        # back-pressure bursts) beyond the wired-in cpu/gpu pair.
        self.transfers[domain] = self.transfers.get(domain, 0) + 1
        self.waited_fs[domain] = self.waited_fs.get(domain, 0) + waited
        if self._trace is not None:
            self._trace.emit(
                "ring.hop",
                self.engine.now,
                "ring",
                {
                    "domain": domain,
                    "slots": payload_slots,
                    "waited_ns": waited / 1e6,
                    "hold_ns": self.hold_fs(payload_slots) / 1e6,
                },
            )
        return waited

    def _transfer_ledger(
        self, payload_slots: int, domain: Domain
    ) -> typing.Generator[object, object, int]:
        if self.tdm is not None:
            # The TDM window check must happen at the true request time,
            # so it cannot fold into the occupancy yield.
            tdm_wait = self.tdm.wait_fs(domain, self.engine.now)
            if tdm_wait:
                yield tdm_wait
        waited, hold = self.reserve(payload_slots, domain)
        yield waited + hold
        return waited

    def reserve(
        self, payload_slots: int, domain: Domain, at_fs: typing.Optional[int] = None
    ) -> typing.Tuple[int, int]:
        """Ledger-mode transfer: book occupancy + accounting at request time.

        Returns ``(waited_fs, hold_fs)``; the caller simulates the delay
        (typically folded into one coalesced yield).  ``at_fs`` lets a
        coalesced access path reserve at its logical request time.  The
        ``ring.hop`` trace fires now with the logical completion
        timestamp — the same timestamp the event-mode emit carries.
        """
        at = self.engine._now if at_fs is None else at_fs
        hold = self._holds.get(payload_slots)
        if hold is None:
            hold = self._holds[payload_slots] = self.hold_fs(payload_slots)
        waited = self._resource.reserve(hold, at)
        self.transfers[domain] = self.transfers.get(domain, 0) + 1
        self.waited_fs[domain] = self.waited_fs.get(domain, 0) + waited
        if self._trace is not None:
            self._trace.emit(
                "ring.hop",
                at + waited + hold,
                "ring",
                {
                    "domain": domain,
                    "slots": payload_slots,
                    "waited_ns": waited / 1e6,
                    "hold_ns": hold / 1e6,
                },
            )
        return waited, hold

    def utilization(self) -> float:
        """Fraction of simulated time the ring medium was occupied."""
        return self._resource.utilization()

    def mean_wait_fs(self, domain: Domain) -> float:
        """Average queueing delay experienced by one domain."""
        count = self.transfers.get(domain, 0)
        return self.waited_fs.get(domain, 0) / count if count else 0.0

    def stats_dict(self) -> typing.Dict[str, object]:
        """Per-domain transfer/queueing counters for the metrics registry."""
        stats: typing.Dict[str, object] = {"utilization": self.utilization()}
        for domain in sorted(self.transfers):
            stats[domain] = {
                "transfers": self.transfers[domain],
                "waited_fs": self.waited_fs.get(domain, 0),
                "mean_wait_ns": self.mean_wait_fs(domain) / 1e6,
            }
        return stats

    def state_dict(self) -> typing.Dict[str, object]:
        """Ledger + accounting state (the TDM schedule is config-derived)."""
        return {
            "resource": self._resource.state_dict(),
            "transfers": dict(self.transfers),
            "waited_fs": dict(self.waited_fs),
        }

    def load_state(self, state: typing.Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._resource.load_state(typing.cast(dict, state["resource"]))
        self.transfers = {
            str(domain): int(count)
            for domain, count in typing.cast(dict, state["transfers"]).items()
        }
        self.waited_fs = {
            str(domain): int(waited)
            for domain, waited in typing.cast(dict, state["waited_fs"]).items()
        }

    def reset_stats(self) -> None:
        """Zero the per-domain accounting (between measurement windows).

        Auxiliary domains (e.g. the ``"fault"`` back-pressure domain) are
        zeroed in place rather than dropped, so ``stats_dict()`` keeps
        reporting them across measurement-window resets.
        """
        self.transfers = {domain: 0 for domain in self.transfers}
        self.waited_fs = {domain: 0 for domain in self.waited_fs}
        for domain in ("cpu", "gpu"):
            self.transfers.setdefault(domain, 0)
            self.waited_fs.setdefault(domain, 0)
