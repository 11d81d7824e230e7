"""A generic set-associative cache with pluggable replacement.

This one structure backs the CPU L1/L2, each LLC slice, and the GPU L3 —
they differ only in geometry and replacement policy, and each indexes its
sets by the low bits of the line number.  The cache is purely a state
machine; all timing lives in the access paths of
:class:`repro.soc.machine.SoC`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import CacheGeometryError
from repro.soc.replacement import ReplacementPolicy, TrueLru


@dataclasses.dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    set_index: int
    way: int
    evicted: typing.Optional[int] = None  # line address pushed out, if any


class SetAssocCache:
    """Set-associative cache storing line addresses as tags.

    The timed access paths use the two-step :meth:`lookup` / :meth:`fill`
    pair, which allocates nothing; :meth:`access` wraps them in an
    :class:`AccessResult` for everyone else.  The line mask and the
    policy's hit/fill/victim methods are bound once at construction.
    """

    def __init__(
        self,
        name: str,
        n_sets: int,
        ways: int,
        line_bytes: int,
        policy: ReplacementPolicy,
    ) -> None:
        if n_sets <= 0 or ways <= 0:
            raise CacheGeometryError(f"{name}: sets and ways must be positive")
        if line_bytes & (line_bytes - 1):
            raise CacheGeometryError(f"{name}: line size must be a power of two")
        if policy.ways != ways:
            raise CacheGeometryError(f"{name}: policy sized for {policy.ways} ways")
        self.name = name
        self.n_sets = n_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.policy = policy
        self._offset_bits = line_bytes.bit_length() - 1
        self._line_mask = ~(line_bytes - 1)
        self._on_hit = policy.on_hit
        self._on_fill = policy.on_fill
        self._victim = policy.victim
        self._tags: typing.List[typing.List[typing.Optional[int]]] = [
            [None] * ways for _ in range(n_sets)
        ]
        self._meta = [policy.new_set_state() for _ in range(n_sets)]
        # Reverse map line -> (set, way) for O(1) invalidation.
        self._where: typing.Dict[int, typing.Tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity_bytes(self) -> int:
        return self.n_sets * self.ways * self.line_bytes

    def set_index_of(self, paddr: int) -> int:
        """The set a physical address maps to: its line number's low bits."""
        return (paddr >> self._offset_bits) % self.n_sets

    def contains(self, paddr: int) -> bool:
        """Whether the line holding ``paddr`` is present (no state change)."""
        return paddr & self._line_mask in self._where

    def access(
        self, paddr: int, allowed_ways: typing.Optional[typing.Sequence[int]] = None
    ) -> AccessResult:
        """Look up ``paddr``; on miss, install it, evicting if needed.

        ``allowed_ways`` restricts where a *fill* may land (used by the
        way-partitioning mitigation); hits are unrestricted.
        """
        if self.lookup(paddr):
            set_index, way = self._where[paddr & self._line_mask]
            return AccessResult(hit=True, set_index=set_index, way=way)
        evicted = self.fill(paddr, allowed_ways)
        set_index, way = self._where[paddr & self._line_mask]
        return AccessResult(hit=False, set_index=set_index, way=way, evicted=evicted)

    def lookup(self, paddr: int) -> bool:
        """The hit half of :meth:`access`: on a hit, count it, mark the way
        most recent and return True; on a miss, change nothing."""
        location = self._where.get(paddr & self._line_mask)
        if location is None:
            return False
        self.hits += 1
        set_index, way = location
        self._on_hit(self._meta[set_index], way)
        return True

    def fill(
        self, paddr: int, allowed_ways: typing.Optional[typing.Sequence[int]] = None
    ) -> typing.Optional[int]:
        """The miss half of :meth:`access`: count the miss, install the line
        (first free way, else the victim) and return the evicted line.

        Only valid after :meth:`lookup` returned False for ``paddr``.
        """
        self.misses += 1
        line = paddr & self._line_mask
        set_index = self.set_index_of(line)
        tags = self._tags[set_index]
        meta = self._meta[set_index]
        if allowed_ways is not None:
            way = self._partition_way(tags, meta, allowed_ways)
        elif None in tags:
            way = tags.index(None)
        else:
            way = self._victim(meta)
        evicted = tags[way]
        if evicted is not None:
            del self._where[evicted]
            self.evictions += 1
        tags[way] = line
        self._where[line] = (set_index, way)
        self._on_fill(meta, way)
        return evicted

    def _partition_way(
        self,
        tags: typing.List[typing.Optional[int]],
        meta: object,
        allowed_ways: typing.Sequence[int],
    ) -> int:
        """Fill target inside a way partition: the first free allowed way,
        else the partition's least recent way (true LRU), else the policy
        victim if allowed, else the lowest allowed way."""
        for way in allowed_ways:
            if tags[way] is None:
                return way
        allowed = set(allowed_ways)
        if not allowed:
            raise CacheGeometryError(f"{self.name}: empty way partition")
        if isinstance(self.policy, TrueLru):
            for way in reversed(typing.cast(list, meta)):  # LRU end first
                if way in allowed:
                    return way
        victim = self._victim(meta)
        if victim in allowed:
            return victim
        return min(allowed)

    def invalidate(self, paddr: int) -> bool:
        """Drop the line holding ``paddr``; True if it was present."""
        location = self._where.pop(paddr & self._line_mask, None)
        if location is None:
            return False
        set_index, way = location
        self._tags[set_index][way] = None
        return True

    def lines_in_set(self, set_index: int) -> typing.Tuple[int, ...]:
        """The line addresses currently resident in one set."""
        return tuple(tag for tag in self._tags[set_index] if tag is not None)

    def occupancy(self, set_index: int) -> int:
        """Number of valid lines in one set."""
        return sum(1 for tag in self._tags[set_index] if tag is not None)

    def flush_all(self) -> None:
        """Invalidate every line (used between experiment repetitions)."""
        self._tags = [[None] * self.ways for _ in range(self.n_sets)]
        self._meta = [self.policy.new_set_state() for _ in range(self.n_sets)]
        self._where.clear()

    def resident_lines(self) -> typing.Iterator[int]:
        """Iterate over every resident line address."""
        return iter(self._where)

    def state_dict(self) -> typing.Dict[str, object]:
        """Full line + replacement + counter state, JSON-able.

        The reverse map is derivable from the tag arrays, so only tags,
        per-set policy metadata and the counters are captured.
        """
        return {
            "tags": [list(ways) for ways in self._tags],
            "meta": [self.policy.export_set_state(meta) for meta in self._meta],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def load_state(self, state: typing.Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` (geometry must match)."""
        tags = typing.cast(typing.List[typing.List[typing.Optional[int]]], state["tags"])
        meta = typing.cast(typing.List[object], state["meta"])
        if len(tags) != self.n_sets or any(len(ways) != self.ways for ways in tags):
            raise CacheGeometryError(
                f"{self.name}: snapshot geometry does not match "
                f"({len(tags)} sets vs {self.n_sets})"
            )
        self._tags = [
            [None if tag is None else int(tag) for tag in ways] for ways in tags
        ]
        self._meta = [self.policy.import_set_state(entry) for entry in meta]
        self._where = {
            line: (set_index, way)
            for set_index, ways in enumerate(self._tags)
            for way, line in enumerate(ways)
            if line is not None
        }
        self.hits = int(typing.cast(int, state["hits"]))
        self.misses = int(typing.cast(int, state["misses"]))
        self.evictions = int(typing.cast(int, state["evictions"]))

    def stats_dict(self) -> typing.Dict[str, object]:
        """Hit/miss/eviction/occupancy counters for the metrics registry."""
        capacity_lines = self.n_sets * self.ways
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_lines": len(self._where),
            "occupancy": len(self._where) / capacity_lines,
        }

    def __len__(self) -> int:
        return len(self._where)

    def __repr__(self) -> str:
        return (
            f"SetAssocCache({self.name!r}, sets={self.n_sets}, ways={self.ways}, "
            f"line={self.line_bytes}, resident={len(self._where)})"
        )
