"""Slice hash, sliced LLC, GPU L3 and CPU cache hierarchy state tests."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    GpuL3Config,
    LlcConfig,
    SLICE_HASH_S0_MASK,
    SLICE_HASH_S1_MASK,
    kaby_lake,
)
from repro.errors import ConfigError
from repro.soc.cpu_cache import CpuCoreCaches
from repro.soc.gpu_l3 import GpuL3
from repro.soc.llc import LlcLocation, SlicedLlc
from repro.soc.slice_hash import SliceHash

paddrs = st.integers(min_value=0, max_value=(1 << 38) - 1)


@pytest.fixture
def slice_hash():
    return SliceHash([SLICE_HASH_S0_MASK, SLICE_HASH_S1_MASK], 4)


def test_hash_is_deterministic(slice_hash):
    assert slice_hash.slice_of(0x12345678) == slice_hash.slice_of(0x12345678)


@given(paddrs)
def test_hash_in_range(paddr):
    slice_hash = SliceHash([SLICE_HASH_S0_MASK, SLICE_HASH_S1_MASK], 4)
    assert 0 <= slice_hash.slice_of(paddr) < 4


@given(paddrs, paddrs)
def test_hash_linearity(a, b):
    """XOR linearity: H(a ^ b ^ 0) == H(a) ^ H(b) ^ H(0)."""
    slice_hash = SliceHash([SLICE_HASH_S0_MASK, SLICE_HASH_S1_MASK], 4)
    assert slice_hash.slice_of(a ^ b) == (
        slice_hash.slice_of(a) ^ slice_hash.slice_of(b) ^ slice_hash.slice_of(0)
    )


def test_hash_ignores_offset_bits(slice_hash):
    assert slice_hash.slice_of(0x1000) == slice_hash.slice_of(0x1000 + 63)


def test_hash_balances_slices(slice_hash):
    counts = collections.Counter(
        slice_hash.slice_of(i << 17) for i in range(4096)
    )
    for count in counts.values():
        assert abs(count - 1024) < 200


def test_hash_mask_bits_roundtrip(slice_hash):
    from repro.config import SLICE_HASH_S0_BITS

    assert slice_hash.mask_bits(0) == SLICE_HASH_S0_BITS


def test_hash_needs_enough_masks():
    with pytest.raises(ConfigError):
        SliceHash([0b1], 4)


def test_hash_equality_semantics(slice_hash):
    same = SliceHash([SLICE_HASH_S0_MASK, SLICE_HASH_S1_MASK], 4)
    assert slice_hash == same
    other = SliceHash([SLICE_HASH_S0_MASK ^ 1 << 20, SLICE_HASH_S1_MASK], 4)
    assert slice_hash != other


# ----------------------------------------------------------------------
# Sliced LLC


@pytest.fixture
def llc():
    return SlicedLlc(LlcConfig())


def test_llc_location_components(llc):
    location = llc.location_of(0x40)
    assert location.set_index == 1
    assert 0 <= location.slice_index < 4


def test_llc_global_set(llc):
    location = LlcLocation(2, 5)
    assert location.global_set(2048) == 2 * 2048 + 5


def test_llc_access_fills_correct_slice(llc):
    paddr = 0xABCDEF40
    llc.access(paddr)
    assert llc.contains(paddr)
    location = llc.location_of(paddr)
    assert paddr & ~63 in llc.lines_in_set(location)


def test_llc_same_set_predicate(llc):
    a = 0x1000
    # Same set bits, different high bits: same_set only if hash agrees.
    b = a + (1 << 17)
    expected = llc.location_of(a) == llc.location_of(b)
    assert llc.same_set(a, b) == expected


def test_llc_sixteen_fills_evict_original(llc):
    base = 0x2000
    llc.access(base)
    location = llc.location_of(base)
    inserted = 0
    offset = 1
    while inserted < 16:
        candidate = base + offset * (1 << 17)
        offset += 1
        if llc.location_of(candidate) == location:
            llc.access(candidate)
            inserted += 1
    assert not llc.contains(base)


def test_llc_invalidate(llc):
    llc.access(0x3000)
    assert llc.invalidate(0x3000)
    assert not llc.contains(0x3000)


def test_llc_flush_all(llc):
    for i in range(64):
        llc.access(i * 64)
    llc.flush_all()
    assert llc.hits + llc.misses == 64
    assert not llc.contains(0)


def test_llc_total_sets(llc):
    assert llc.total_sets == 4 * 2048


def test_llc_slice_cache_bounds(llc):
    from repro.errors import CacheGeometryError

    with pytest.raises(CacheGeometryError):
        llc.slice_cache(4)


# ----------------------------------------------------------------------
# GPU L3


@pytest.fixture
def l3():
    return GpuL3(GpuL3Config())


def test_l3_placement_decomposition(l3):
    paddr = (3 << 13) | (2 << 11) | (7 << 6)  # subbank=3? compute below
    placement = l3.placement_of(paddr)
    assert placement.set_in_bank == 7
    assert placement.bank == 2
    assert placement.subbank == 3
    assert placement.flat_index(GpuL3Config()) == l3.flat_index_of(paddr)


def test_l3_same_set_iff_low_bits_match(l3):
    a = 0x1240
    assert l3.same_set(a, a + (1 << 16))
    assert not l3.same_set(a, a + (1 << 10))


def test_l3_capacity(l3):
    assert l3.capacity_bytes == 512 * 1024


def test_l3_fill_and_evict_cycle(l3):
    base = 0x40
    conflicts = [base + (k + 1) * (1 << 16) for k in range(8)]
    l3.access(base)
    for _round in range(5):
        for paddr in conflicts:
            l3.access(paddr)
    assert not l3.contains(base)


def test_l3_non_inclusive_invalidate_independent(l3):
    l3.access(0x80)
    assert l3.invalidate(0x80)
    assert not l3.contains(0x80)


@settings(max_examples=20)
@given(st.lists(st.integers(min_value=0, max_value=1 << 22), min_size=1, max_size=200))
def test_l3_resident_lines_bounded(addresses):
    l3 = GpuL3(GpuL3Config())
    for paddr in addresses:
        l3.access(paddr)
    assert len(l3) <= l3.config.total_sets * l3.config.ways


# ----------------------------------------------------------------------
# CPU private caches


@pytest.fixture
def caches():
    return CpuCoreCaches(kaby_lake().cpu_cache, core_id=0)


def test_cpu_fill_after_llc_installs_both_levels(caches):
    caches.fill_after_llc(0x1000)
    assert caches.l1.contains(0x1000)
    assert caches.l2.contains(0x1000)


def test_cpu_l1_subset_of_l2_invariant(caches):
    # Hammer one L2 set hard enough to force L2 evictions.
    stride = 64 * 1024  # l2 sets(1024) * 64
    for k in range(12):
        caches.fill_after_llc(k * stride)
    for line in caches.l1.resident_lines():
        assert caches.l2.contains(line)


def test_cpu_invalidate_clears_both(caches):
    caches.fill_after_llc(0x2000)
    assert caches.invalidate(0x2000)
    assert not caches.contains(0x2000)


def test_cpu_flush_all(caches):
    caches.fill_after_llc(0x40)
    caches.flush_all()
    assert not caches.contains(0x40)


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 38) - 1), min_size=1, max_size=3),
    st.lists(paddrs, min_size=1, max_size=20),
)
def test_hash_matches_generic_parity_form(masks, addresses):
    """Output bit i is the parity of ``paddr & masks[i]``, for 1-3 masks."""
    slice_hash = SliceHash(masks, 1 << len(masks))
    for paddr in addresses:
        expected = sum(
            (bin(paddr & mask).count("1") & 1) << position
            for position, mask in enumerate(masks)
        )
        assert slice_hash.slice_of(paddr) == expected
