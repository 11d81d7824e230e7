"""Physical-address helpers.

Addresses are plain integers.  All caches share one line size, so helpers
take the line size explicitly rather than capturing global state.
"""

from __future__ import annotations

import dataclasses

from repro.errors import MemoryModelError


def line_address(paddr: int, line_bytes: int) -> int:
    """The address of the first byte of the line containing ``paddr``."""
    return paddr & ~(line_bytes - 1)


def line_index(paddr: int, line_bytes: int) -> int:
    """The line number of ``paddr`` (address divided by line size)."""
    return paddr >> (line_bytes.bit_length() - 1)


def offset_in_line(paddr: int, line_bytes: int) -> int:
    """The byte offset of ``paddr`` within its cache line."""
    return paddr & (line_bytes - 1)


def parity(value: int) -> int:
    """XOR-reduction (parity) of the set bits of ``value``."""
    return value.bit_count() & 1


@dataclasses.dataclass(frozen=True)
class AddressRegion:
    """A contiguous physical address range ``[base, base + size)``."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise MemoryModelError(f"invalid region base={self.base} size={self.size}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, paddr: int) -> bool:
        return self.base <= paddr < self.end

    def overlaps(self, other: "AddressRegion") -> bool:
        return self.base < other.end and other.base < self.end

    def lines(self, line_bytes: int):
        """Iterate over the line addresses covered by this region."""
        first = line_address(self.base, line_bytes)
        addr = first
        while addr < self.end:
            yield addr
            addr += line_bytes
