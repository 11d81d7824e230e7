"""Cache replacement policies.

Each policy owns the per-set metadata needed to pick victims.  The GPU L3
uses a tree-based pseudo-LRU with N-1 internal nodes (§III-D quotes the
Gen9 PRM); the CPU caches and LLC use true LRU, and a random policy exists
for ablations.

A policy instance is bound to one cache; per-set state is an opaque object
created by :meth:`new_set_state`.  The cache binds :meth:`on_hit`,
:meth:`on_fill` and :meth:`victim` once and calls them on every access.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.errors import CacheGeometryError


class ReplacementPolicy:
    """Interface: victim selection plus hit/fill bookkeeping per set."""

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise CacheGeometryError(f"ways must be positive, got {ways}")
        self.ways = ways

    def new_set_state(self) -> object:
        """Create the metadata object for one cache set."""
        raise NotImplementedError

    def on_hit(self, state: typing.Any, way: int) -> None:
        """Update metadata after a hit in ``way``."""
        raise NotImplementedError

    def on_fill(self, state: typing.Any, way: int) -> None:
        """Update metadata after a new line is installed in ``way``."""
        raise NotImplementedError

    def victim(self, state: typing.Any) -> int:
        """Pick the way to evict from a full set (no state change)."""
        raise NotImplementedError

    def export_set_state(self, state: object) -> object:
        """Per-set metadata as a JSON-able value (checkpoint contract).

        The default covers list-of-int metadata (true LRU stacks, pLRU bit
        vectors) and ``None`` (stateless policies).
        """
        return list(typing.cast(list, state)) if state is not None else None

    def import_set_state(self, exported: object) -> object:
        """Rebuild per-set metadata from :meth:`export_set_state` output."""
        if exported is None:
            return None
        return [int(entry) for entry in typing.cast(list, exported)]


class TrueLru(ReplacementPolicy):
    """Exact least-recently-used ordering."""

    def new_set_state(self) -> typing.List[int]:
        # Recency stack: index 0 = MRU, last = LRU.
        return list(range(self.ways))

    def on_hit(self, state: typing.List[int], way: int) -> None:
        if state[0] != way:  # move ``way`` to the MRU end
            state.remove(way)
            state.insert(0, way)

    on_fill = on_hit

    def victim(self, state: typing.List[int]) -> int:
        return state[-1]


class TreePlru(ReplacementPolicy):
    """Binary-tree pseudo-LRU with ``ways - 1`` internal nodes.

    Each internal node stores one bit pointing *away* from the recently
    used half.  Victim selection walks the bits from the root; touching a
    way flips the bits along its path to point away from it.  ``ways`` must
    be a power of two.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise CacheGeometryError("tree-pLRU requires a power-of-two way count")
        self._levels = ways.bit_length() - 1
        # Leaves are numbered after the ``ways - 1`` internal nodes.
        self._inner = ways - 1
        # Per way, the ``(node, bit)`` writes that touching it makes: the
        # bits along its root-to-leaf path, each pointing away from it.
        self._paths = tuple(self._path(way) for way in range(ways))

    def _path(self, way: int) -> typing.Tuple[typing.Tuple[int, int], ...]:
        path = []
        node = 0
        for level in range(self._levels):
            side = (way >> (self._levels - 1 - level)) & 1
            path.append((node, 1 - side))  # point away from the touched side
            node = 2 * node + 1 + side
        return tuple(path)

    def new_set_state(self) -> typing.List[int]:
        return [0] * max(1, self.ways - 1)

    def on_hit(self, state: typing.List[int], way: int) -> None:
        for node, bit in self._paths[way]:
            state[node] = bit

    on_fill = on_hit

    def victim(self, state: typing.List[int]) -> int:
        # Follow the pointer bits from the root down to a leaf.
        node = 0
        inner = self._inner
        while node < inner:
            node = 2 * node + 1 + state[node]
        return node - inner


class RandomReplacement(ReplacementPolicy):
    """Uniformly random victim; used only for ablation experiments."""

    def __init__(self, ways: int, rng: np.random.Generator) -> None:
        super().__init__(ways)
        self._rng = rng

    def new_set_state(self) -> None:
        return None

    def on_hit(self, state: object, way: int) -> None:
        pass

    def on_fill(self, state: object, way: int) -> None:
        pass

    def victim(self, state: object) -> int:
        return int(self._rng.integers(0, self.ways))


def make_policy(
    name: str, ways: int, rng: typing.Optional[np.random.Generator] = None
) -> ReplacementPolicy:
    """Factory keyed by policy name: ``lru``, ``tree-plru`` or ``random``."""
    if name == "lru":
        return TrueLru(ways)
    if name == "tree-plru":
        return TreePlru(ways)
    if name == "random":
        if rng is None:
            raise CacheGeometryError("random policy requires an rng")
        return RandomReplacement(ways, rng)
    raise CacheGeometryError(f"unknown replacement policy: {name!r}")
