"""The shared, sliced last-level cache.

Geometry follows §III-C: 8 MB total, 4 slices of 2 MB, 16 ways, 64-byte
lines, 2048 sets per slice.  The slice is chosen by the complex XOR hash
(Eq. (1)/(2)); the set within the slice comes from the address bits just
above the line offset.  The LLC is inclusive of the CPU's L1/L2 (the SoC
wiring issues back-invalidations on eviction) but *not* of the GPU L3.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import LlcConfig
from repro.errors import CacheGeometryError
from repro.soc.cache import AccessResult, SetAssocCache
from repro.soc.replacement import TrueLru
from repro.soc.slice_hash import SliceHash


@dataclasses.dataclass(frozen=True)
class LlcLocation:
    """A (slice, set) coordinate in the LLC."""

    slice_index: int
    set_index: int

    def global_set(self, sets_per_slice: int) -> int:
        """A single integer identifying this set across all slices."""
        return self.slice_index * sets_per_slice + self.set_index


class SlicedLlc:
    """Four independent slice arrays behind one addressing function."""

    def __init__(self, config: LlcConfig) -> None:
        config.validate()
        self.config = config
        self.hash = SliceHash(
            [config.hash_s0_mask, config.hash_s1_mask], config.slices
        )
        self._line_mask = ~(config.line_bytes - 1)
        self._slices = [
            SetAssocCache(
                name=f"llc-slice{i}",
                n_sets=config.sets_per_slice,
                ways=config.ways,
                line_bytes=config.line_bytes,
                policy=TrueLru(config.ways),
            )
            for i in range(config.slices)
        ]

    def location_of(self, paddr: int) -> LlcLocation:
        """Which (slice, set) a physical address maps to."""
        slice_index = self.hash.slice_of(paddr)
        return LlcLocation(slice_index, self._slices[slice_index].set_index_of(paddr))

    def slice_cache(self, slice_index: int) -> SetAssocCache:
        """Direct access to one slice's array (tests, mitigations)."""
        if not 0 <= slice_index < self.config.slices:
            raise CacheGeometryError(f"no such LLC slice: {slice_index}")
        return self._slices[slice_index]

    def slice_for(self, paddr: int) -> SetAssocCache:
        """The slice array holding ``paddr`` (the access paths' entry)."""
        return self._slices[self.hash.slice_of(paddr)]

    def access(
        self, paddr: int, allowed_ways: typing.Optional[typing.Sequence[int]] = None
    ) -> AccessResult:
        """Access (and fill on miss) the line holding ``paddr``."""
        return self._slices[self.hash.slice_of(paddr)].access(paddr, allowed_ways)

    def contains(self, paddr: int) -> bool:
        """Presence check without touching replacement state."""
        return self._slices[self.hash.slice_of(paddr)].contains(paddr)

    def invalidate(self, paddr: int) -> bool:
        """Drop the line holding ``paddr`` (e.g. on clflush)."""
        return self._slices[self.hash.slice_of(paddr)].invalidate(paddr)

    def lines_in_set(self, location: LlcLocation) -> typing.Tuple[int, ...]:
        """Resident line addresses of one (slice, set)."""
        return self._slices[location.slice_index].lines_in_set(location.set_index)

    def same_set(self, paddr_a: int, paddr_b: int) -> bool:
        """Whether two physical addresses collide in one LLC set."""
        return self.location_of(paddr_a) == self.location_of(paddr_b)

    def flush_all(self) -> None:
        """Empty every slice."""
        for slice_cache in self._slices:
            slice_cache.flush_all()

    @property
    def total_sets(self) -> int:
        return self.config.slices * self.config.sets_per_slice

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._slices)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._slices)

    def line_of(self, paddr: int) -> int:
        """Line-align a physical address using the LLC line size."""
        return paddr & self._line_mask

    def state_dict(self) -> typing.Dict[str, object]:
        """Every slice's line + replacement state (checkpoint contract)."""
        return {"slices": [s.state_dict() for s in self._slices]}

    def load_state(self, state: typing.Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        slices = typing.cast(list, state["slices"])
        if len(slices) != len(self._slices):
            raise CacheGeometryError(
                f"snapshot has {len(slices)} LLC slices, machine has "
                f"{len(self._slices)}"
            )
        for slice_cache, slice_state in zip(self._slices, slices):
            slice_cache.load_state(slice_state)

    def stats_dict(self) -> typing.Dict[str, object]:
        """Aggregate plus per-slice counters for the metrics registry."""
        stats: typing.Dict[str, object] = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": sum(s.evictions for s in self._slices),
        }
        for index, slice_cache in enumerate(self._slices):
            stats[f"slice{index}"] = slice_cache.stats_dict()
        return stats
