"""The LLC complex slice-selection hash.

Intel does not document the function; §III-C of the paper reverse engineers
it for the i7-7700k as two XOR-reductions over physical-address bits
(Eq. (1) and Eq. (2)).  This module implements that exact function, plus the
generic form (arbitrary masks) used by the reverse-engineering code in
:mod:`repro.core.reverse_engineering.slice_hash_re`, which must *recover*
the masks from timing alone.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError


class SliceHash:
    """XOR-mask slice selector: output bit i = parity(paddr & masks[i])."""

    def __init__(self, masks: typing.Sequence[int], n_slices: int) -> None:
        if n_slices & (n_slices - 1):
            raise ConfigError("slice count must be a power of two")
        needed_bits = max(0, n_slices.bit_length() - 1)
        if len(masks) < needed_bits:
            raise ConfigError(
                f"{n_slices} slices need {needed_bits} hash bits, got {len(masks)}"
            )
        self.masks = tuple(int(m) for m in masks)
        self.n_slices = n_slices
        self._used_bits = needed_bits
        self._used_masks = self.masks[:needed_bits]

    def slice_of(self, paddr: int) -> int:
        """The LLC slice index of a physical address."""
        value = 0
        for position, mask in enumerate(self._used_masks):
            value |= ((paddr & mask).bit_count() & 1) << position
        return value

    def mask_bits(self, position: int) -> typing.Tuple[int, ...]:
        """The physical-address bit positions feeding hash output bit ``position``."""
        mask = self.masks[position]
        return tuple(bit for bit in range(mask.bit_length()) if mask >> bit & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SliceHash):
            return NotImplemented
        return (
            self.n_slices == other.n_slices
            and self.masks[: self._used_bits] == other.masks[: other._used_bits]
        )

    def __hash__(self) -> int:
        return hash((self.n_slices, self.masks[: self._used_bits]))

    def __repr__(self) -> str:
        masks = ", ".join(hex(m) for m in self.masks[: self._used_bits])
        return f"SliceHash(n_slices={self.n_slices}, masks=[{masks}])"
