"""Replacement policies and the generic set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CacheGeometryError
from repro.sim.rng import RngStreams
from repro.soc.cache import SetAssocCache
from repro.soc.replacement import RandomReplacement, TreePlru, TrueLru, make_policy


# ----------------------------------------------------------------------
# True LRU


def test_lru_victim_is_least_recent():
    policy = TrueLru(4)
    state = policy.new_set_state()
    for way in (0, 1, 2, 3):
        policy.on_fill(state, way)
    assert policy.victim(state) == 0
    policy.on_hit(state, 0)
    assert policy.victim(state) == 1


def test_lru_sequence():
    policy = TrueLru(3)
    state = policy.new_set_state()
    for way in (0, 1, 2, 0, 1):
        policy.on_hit(state, way)
    assert policy.victim(state) == 2


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64))
def test_lru_victim_untouched_longest(touches):
    policy = TrueLru(8)
    state = policy.new_set_state()
    for way in touches:
        policy.on_hit(state, way)
    victim = policy.victim(state)
    last_touch = {way: i for i, way in enumerate(touches)}
    victim_last = last_touch.get(victim, -1)
    for way in range(8):
        assert last_touch.get(way, -1) >= victim_last


# ----------------------------------------------------------------------
# Tree pLRU


def test_plru_requires_pow2_ways():
    with pytest.raises(CacheGeometryError):
        TreePlru(6)


def test_plru_state_has_n_minus_1_nodes():
    # §III-D quotes the PRM: N-1 tree nodes for N ways.
    assert len(TreePlru(8).new_set_state()) == 7
    assert len(TreePlru(16).new_set_state()) == 15


def test_plru_victim_avoids_just_touched():
    policy = TreePlru(8)
    state = policy.new_set_state()
    for way in range(8):
        policy.on_fill(state, way)
    touched = 5
    policy.on_hit(state, touched)
    assert policy.victim(state) != touched


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64))
def test_plru_victim_never_most_recent(touches):
    policy = TreePlru(8)
    state = policy.new_set_state()
    for way in touches:
        policy.on_hit(state, way)
    assert policy.victim(state) != touches[-1]


def test_plru_cyclic_sweep_churns():
    """Sweeping ways+1 logical lines keeps evicting (channel relies on it)."""
    cache = SetAssocCache("plru", 1, 8, 64, TreePlru(8))
    lines = [i * 64 for i in range(9)]
    for _sweep in range(5):
        for line in lines:
            cache.access(line)
    assert cache.evictions >= 5


# ----------------------------------------------------------------------
# Random policy & factory


def test_random_policy_victim_in_range():
    rng = RngStreams(0).stream("r")
    policy = RandomReplacement(4, rng)
    state = policy.new_set_state()
    assert all(0 <= policy.victim(state) < 4 for _ in range(50))


def test_make_policy_factory():
    assert isinstance(make_policy("lru", 4), TrueLru)
    assert isinstance(make_policy("tree-plru", 4), TreePlru)
    rng = RngStreams(0).stream("r")
    assert isinstance(make_policy("random", 4, rng), RandomReplacement)
    with pytest.raises(CacheGeometryError):
        make_policy("random", 4)
    with pytest.raises(CacheGeometryError):
        make_policy("mru", 4)


# ----------------------------------------------------------------------
# SetAssocCache


@pytest.fixture
def cache():
    return SetAssocCache("test", n_sets=4, ways=2, line_bytes=64, policy=TrueLru(2))


def test_cache_miss_then_hit(cache):
    first = cache.access(0x1000)
    second = cache.access(0x1000)
    assert not first.hit
    assert second.hit
    assert cache.hits == 1 and cache.misses == 1


def test_cache_same_line_offsets_hit(cache):
    cache.access(0x1000)
    assert cache.access(0x103F).hit  # same 64-byte line


def test_cache_eviction_reports_victim(cache):
    # Set 0 of 4 sets: addresses stride 4*64.
    stride = 4 * 64
    cache.access(0)
    cache.access(stride)
    result = cache.access(2 * stride)
    assert result.evicted == 0  # LRU
    assert not cache.contains(0)


def test_cache_contains_is_passive(cache):
    cache.access(0)
    hits_before = cache.hits
    assert cache.contains(0)
    assert cache.hits == hits_before


def test_cache_invalidate(cache):
    cache.access(0x40)
    assert cache.invalidate(0x40)
    assert not cache.contains(0x40)
    assert not cache.invalidate(0x40)


def test_cache_lines_in_set(cache):
    cache.access(0)
    cache.access(4 * 64)
    assert set(cache.lines_in_set(0)) == {0, 256}
    assert cache.occupancy(0) == 2


def test_cache_flush_all(cache):
    for i in range(8):
        cache.access(i * 64)
    cache.flush_all()
    assert len(cache) == 0
    assert cache.occupancy(0) == 0


def test_cache_default_index_wraps(cache):
    assert cache.set_index_of(0) == cache.set_index_of(4 * 64)
    assert cache.set_index_of(64) == 1


def test_cache_capacity(cache):
    assert cache.capacity_bytes == 4 * 2 * 64


def test_cache_rejects_bad_geometry():
    with pytest.raises(CacheGeometryError):
        SetAssocCache("bad", 0, 2, 64, TrueLru(2))
    with pytest.raises(CacheGeometryError):
        SetAssocCache("bad", 4, 2, 63, TrueLru(2))
    with pytest.raises(CacheGeometryError):
        SetAssocCache("bad", 4, 4, 64, TrueLru(2))


def test_cache_partitioned_fill_respects_ways(cache):
    stride = 4 * 64
    cache.access(0 * stride, allowed_ways=[0])
    cache.access(1 * stride, allowed_ways=[0])
    result = cache.access(2 * stride, allowed_ways=[0])
    # Way 1 never filled; all evictions happened in way 0.
    assert result.way == 0
    assert cache.occupancy(0) == 1


def test_cache_partition_does_not_limit_hits(cache):
    cache.access(0, allowed_ways=[1])
    assert cache.access(0, allowed_ways=[0]).hit


def test_cache_empty_partition_raises():
    cache = SetAssocCache("p", 1, 2, 64, TrueLru(2))
    cache.access(0, allowed_ways=[0])
    cache.access(128, allowed_ways=[1])
    with pytest.raises(CacheGeometryError):
        cache.access(256, allowed_ways=[])


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
def test_cache_invariants_under_random_traffic(line_numbers):
    """Occupancy never exceeds ways; contains() agrees with accesses."""
    cache = SetAssocCache("prop", n_sets=8, ways=4, line_bytes=64, policy=TrueLru(4))
    for number in line_numbers:
        cache.access(number * 64)
        # Reverse map consistent with per-set tags.
        total = sum(cache.occupancy(s) for s in range(8))
        assert total == len(cache)
        assert cache.occupancy(number % 8) <= 4
        assert cache.contains(number * 64)
    assert cache.hits + cache.misses == len(line_numbers)


@settings(max_examples=20)
@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=8, max_size=100),
    st.sampled_from(["lru", "tree-plru"]),
)
def test_cache_most_recent_line_always_resident(line_numbers, policy_name):
    cache = SetAssocCache(
        "prop2", n_sets=2, ways=4, line_bytes=64,
        policy=make_policy(policy_name, 4),
    )
    for number in line_numbers:
        cache.access(number * 64)
        assert cache.contains(number * 64)


# ----------------------------------------------------------------------
# Differential check of the flat lookup/fill path against a reference
# model: the per-call access/install/victim chain the cache used to run,
# with its own LRU stack and pLRU bit walks.


class _ReferenceCache:
    """Straightforward set-associative cache with the policy walks spelled out."""

    def __init__(self, n_sets, ways, line_bytes, policy_name):
        self.n_sets = n_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.lru = policy_name == "lru"
        self.levels = ways.bit_length() - 1
        self.tags = [[None] * ways for _ in range(n_sets)]
        self.meta = [
            list(range(ways)) if self.lru else [0] * max(1, ways - 1)
            for _ in range(n_sets)
        ]
        self.where = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _touch(self, meta, way):
        if self.lru:
            meta.remove(way)
            meta.insert(0, way)
            return
        node = 0
        for level in range(self.levels):
            side = (way >> (self.levels - 1 - level)) & 1
            meta[node] = 1 - side
            node = 2 * node + 1 + side

    def _victim(self, meta):
        if self.lru:
            return meta[-1]
        node = 0
        way = 0
        for _level in range(self.levels):
            side = meta[node]
            way = (way << 1) | side
            node = 2 * node + 1 + side
        return way

    def access(self, paddr, allowed_ways=None):
        line = paddr & ~(self.line_bytes - 1)
        location = self.where.get(line)
        if location is not None:
            set_index, way = location
            self._touch(self.meta[set_index], way)
            self.hits += 1
            return True, set_index, way, None
        self.misses += 1
        set_index = (line // self.line_bytes) % self.n_sets
        way, evicted = self._install(set_index, line, allowed_ways)
        return False, set_index, way, evicted

    def _install(self, set_index, line, allowed_ways):
        tags = self.tags[set_index]
        meta = self.meta[set_index]
        candidates = range(self.ways) if allowed_ways is None else allowed_ways
        for way in candidates:
            if tags[way] is None:
                tags[way] = line
                self.where[line] = (set_index, way)
                self._touch(meta, way)
                return way, None
        way = self._pick_victim(meta, allowed_ways)
        evicted = tags[way]
        if evicted is not None:
            del self.where[evicted]
            self.evictions += 1
        tags[way] = line
        self.where[line] = (set_index, way)
        self._touch(meta, way)
        return way, evicted

    def _pick_victim(self, meta, allowed_ways):
        if allowed_ways is None:
            return self._victim(meta)
        allowed = set(allowed_ways)
        if self.lru:
            for way in reversed(meta):
                if way in allowed:
                    return way
        victim = self._victim(meta)
        if victim in allowed:
            return victim
        return min(allowed)

    def invalidate(self, paddr):
        location = self.where.pop(paddr & ~(self.line_bytes - 1), None)
        if location is None:
            return False
        set_index, way = location
        self.tags[set_index][way] = None
        return True

    def state_dict(self):
        return {
            "tags": [list(ways) for ways in self.tags],
            "meta": [list(meta) for meta in self.meta],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@pytest.mark.parametrize("policy_name", ["lru", "tree-plru"])
@pytest.mark.parametrize("ways", [8, 16])
@pytest.mark.parametrize("partitioned", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flat_cache_matches_reference(policy_name, ways, partitioned, data):
    n_sets, line_bytes = 2, 64
    # Three lines per way of every set keep the sets full and churning.
    # A step is (is_access, line number); about one in eight
    # invalidates, which reopens free ways inside full sets.
    steps = data.draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7).map(lambda r: r != 0),
            st.integers(min_value=0, max_value=3 * ways * n_sets - 1),
        ),
        min_size=4 * ways,
        max_size=300,
    ))
    allowed = None
    if partitioned:
        allowed = data.draw(st.lists(
            st.integers(min_value=0, max_value=ways - 1),
            min_size=1, max_size=ways - 1, unique=True,
        ))
    cache = SetAssocCache("diff", n_sets=n_sets, ways=ways, line_bytes=line_bytes,
                          policy=make_policy(policy_name, ways))
    reference = _ReferenceCache(n_sets, ways, line_bytes, policy_name)
    for index, (is_access, number) in enumerate(steps):
        paddr = number * line_bytes + index % line_bytes
        if not is_access:
            assert cache.invalidate(paddr) == reference.invalidate(paddr)
            continue
        expected = reference.access(paddr, allowed)
        if index % 2:
            result = cache.access(paddr, allowed)
            got = (result.hit, result.set_index, result.way, result.evicted)
        else:
            # The hot path: lookup, then fill on a miss.
            hit = cache.lookup(paddr)
            evicted = None if hit else cache.fill(paddr, allowed)
            set_index, way = cache._where[paddr & ~(line_bytes - 1)]
            got = (hit, set_index, way, evicted)
        assert got == expected
    assert cache.state_dict() == reference.state_dict()
