"""The GPU's L3 data cache.

§III-D reverse engineers the structure: 64-byte lines; placement is fixed
by the low address bits — in order above the byte offset: the set within a
bank, the bank, and the sub-bank (6 + 5 + 2 + 3 = 16 bits at full scale).
The replacement policy is a binary-tree pseudo-LRU, and the cache is
**non-inclusive** with the LLC: evicting a line from the LLC (e.g. with
``clflush`` from the CPU) leaves the GPU L3 copy intact.  That property is
what forces the attacker to build L3 eviction sets from the GPU side.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import GpuL3Config
from repro.soc.cache import AccessResult, SetAssocCache
from repro.soc.replacement import TreePlru


@dataclasses.dataclass(frozen=True)
class L3Placement:
    """Decomposition of an address's L3 placement (paper's terminology)."""

    set_in_bank: int
    bank: int
    subbank: int

    def flat_index(self, config: GpuL3Config) -> int:
        set_bits = config.sets_per_bank.bit_length() - 1
        bank_bits = config.banks.bit_length() - 1
        return (
            self.set_in_bank
            | (self.bank << set_bits)
            | (self.subbank << (set_bits + bank_bits))
        )


class GpuL3:
    """Banked L3 behind one flat placement index."""

    def __init__(self, config: GpuL3Config) -> None:
        config.validate()
        self.config = config
        self._set_bits = config.sets_per_bank.bit_length() - 1
        self._bank_bits = config.banks.bit_length() - 1
        self._cache = SetAssocCache(
            name="gpu-l3",
            n_sets=config.total_sets,
            ways=config.ways,
            line_bytes=config.line_bytes,
            policy=TreePlru(config.ways),
        )

    def placement_of(self, paddr: int) -> L3Placement:
        """Decode the (set, bank, sub-bank) placement of an address."""
        flat = self.flat_index_of(paddr)
        set_bits = self._set_bits
        bank_bits = self._bank_bits
        return L3Placement(
            set_in_bank=flat & ((1 << set_bits) - 1),
            bank=(flat >> set_bits) & ((1 << bank_bits) - 1),
            subbank=flat >> (set_bits + bank_bits),
        )

    def flat_index_of(self, paddr: int) -> int:
        """The flat set index used by the storage array."""
        return self._cache.set_index_of(paddr)

    @property
    def array(self) -> SetAssocCache:
        """The backing set-associative array (the access paths' entry)."""
        return self._cache

    def same_set(self, paddr_a: int, paddr_b: int) -> bool:
        """Whether two addresses collide in one L3 set.

        Equivalent to "same low ``placement_bits`` address bits above the
        offset" — the §III-D observation the eviction sets are built on.
        """
        return self.flat_index_of(paddr_a) == self.flat_index_of(paddr_b)

    def access(self, paddr: int) -> AccessResult:
        """Access (and fill on miss) the line holding ``paddr``."""
        return self._cache.access(paddr)

    def contains(self, paddr: int) -> bool:
        return self._cache.contains(paddr)

    def invalidate(self, paddr: int) -> bool:
        return self._cache.invalidate(paddr)

    def lines_in_set(self, flat_index: int) -> typing.Tuple[int, ...]:
        return self._cache.lines_in_set(flat_index)

    def flush_all(self) -> None:
        self._cache.flush_all()

    def resident_lines(self) -> typing.Iterator[int]:
        return self._cache.resident_lines()

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def capacity_bytes(self) -> int:
        return self._cache.capacity_bytes

    def stats_dict(self) -> typing.Dict[str, object]:
        """The backing array's counters for the metrics registry."""
        return self._cache.stats_dict()

    def state_dict(self) -> typing.Dict[str, object]:
        """The backing array's full state (checkpoint contract)."""
        return self._cache.state_dict()

    def load_state(self, state: typing.Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._cache.load_state(state)

    def __len__(self) -> int:
        return len(self._cache)
