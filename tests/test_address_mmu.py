"""Address helpers, regions, and the MMU/buffer layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MmuConfig
from repro.errors import AllocationError, MemoryModelError
from repro.sim.rng import RngStreams
from repro.soc.address import (
    AddressRegion,
    line_address,
    line_index,
    offset_in_line,
    parity,
)
from repro.soc.mmu import AddressSpace, Mmu


@given(st.integers(min_value=0, max_value=2**40))
def test_line_address_aligns(paddr):
    aligned = line_address(paddr, 64)
    assert aligned % 64 == 0
    assert aligned <= paddr < aligned + 64


@given(st.integers(min_value=0, max_value=2**40))
def test_line_decomposition_roundtrip(paddr):
    assert line_index(paddr, 64) * 64 + offset_in_line(paddr, 64) == paddr


@given(st.integers(min_value=0, max_value=2**40))
def test_parity_matches_bit_count(value):
    assert parity(value) == bin(value).count("1") % 2


def test_parity_xor_linearity():
    a, b = 0b1010, 0b0110
    assert parity(a ^ b) == parity(a) ^ parity(b)


def test_region_contains_and_end():
    region = AddressRegion(100, 50)
    assert region.end == 150
    assert region.contains(100)
    assert region.contains(149)
    assert not region.contains(150)


def test_region_overlap():
    a = AddressRegion(0, 100)
    assert a.overlaps(AddressRegion(50, 100))
    assert not a.overlaps(AddressRegion(100, 10))


def test_region_rejects_empty():
    with pytest.raises(MemoryModelError):
        AddressRegion(0, 0)


def test_region_lines_iteration():
    region = AddressRegion(130, 130)
    lines = list(region.lines(64))
    assert lines == [128, 192, 256]


@pytest.fixture
def mmu():
    return Mmu(MmuConfig(), RngStreams(3).stream("mmu"))


def test_frames_are_distinct_and_aligned(mmu):
    frames = mmu.allocate_frames(32, 4096)
    assert len(set(frames)) == 32
    assert all(f % 4096 == 0 for f in frames)


def test_block_alignment(mmu):
    region = mmu.allocate_block(1 << 30, 1 << 30)
    assert region.base % (1 << 30) == 0


def test_allocations_never_overlap(mmu):
    regions = [mmu.allocate_block(1 << 20, 1 << 20) for _ in range(20)]
    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            assert not a.overlaps(b)


def test_oversized_allocation_fails(mmu):
    with pytest.raises(AllocationError):
        mmu.allocate_block(1 << 45, 4096)


def test_free_returns_region(mmu):
    region = mmu.allocate_block(1 << 20, 1 << 20)
    mmu.free(region)
    mmu._claim(region.base, region.size)  # reusable now


def test_free_unknown_region_raises(mmu):
    with pytest.raises(MemoryModelError):
        mmu.free(AddressRegion(12345 * 4096, 4096))


@pytest.fixture
def space(mmu):
    return AddressSpace(mmu, name="proc")


def test_buffer_paddr_offsets_consistent(space):
    buffer = space.mmap(4096 * 4)
    for offset in (0, 1, 4095, 4096, 8191, 16383):
        paddr = buffer.paddr_of(offset)
        assert paddr % 4096 == offset % 4096


def test_buffer_out_of_range_offset(space):
    buffer = space.mmap(4096)
    with pytest.raises(MemoryModelError):
        buffer.paddr_of(4096)


def test_small_pages_not_contiguous_usually(space):
    buffer = space.mmap(4096 * 16)
    assert not buffer.is_physically_contiguous


def test_huge_pages_are_contiguous(space):
    buffer = space.mmap_huge(1 << 30)
    assert buffer.is_physically_contiguous
    base = buffer.paddr_of(0)
    assert base % (1 << 30) == 0
    assert buffer.paddr_of(123456) == base + 123456


def test_translate_virtual_addresses(space):
    buffer = space.mmap(8192)
    vaddr = buffer.vaddr_of(5000)
    assert space.translate(vaddr) == buffer.paddr_of(5000)


def test_translate_unmapped_raises(space):
    with pytest.raises(MemoryModelError):
        space.translate(0xDEAD)


def test_vaddr_offset_roundtrip(space):
    buffer = space.mmap(8192)
    assert buffer.offset_of_vaddr(buffer.vaddr_of(777)) == 777


def test_distinct_buffers_disjoint_va(space):
    a = space.mmap(4096)
    b = space.mmap(4096)
    assert a.va_end <= b.va_base or b.va_end <= a.va_base


def test_line_paddrs_count(space):
    buffer = space.mmap(64 * 100)
    assert len(buffer.line_paddrs(64)) == 100


def test_zero_size_buffer_rejected(space):
    with pytest.raises(MemoryModelError):
        space.mmap(0)


def test_svm_shares_address_space(space):
    """Two views of one AddressSpace see identical translations (SVM)."""
    buffer = space.mmap(4096)
    # The GPU "borrows" the same space object; translation must agree.
    assert space.translate(buffer.vaddr_of(100)) == buffer.paddr_of(100)
