"""Tests for simulated memory and the virtual address space."""

import random

import pytest

from repro.sim.memory import (
    NULL,
    MemoryError_,
    Reservation,
    SimulatedMemory,
    VirtualAddressSpace,
    WORD_SIZE,
)


class TestSimulatedMemory:
    def test_read_unwritten_returns_zero(self):
        mem = SimulatedMemory()
        assert mem.read_word(0x1000) == 0

    def test_write_then_read(self):
        mem = SimulatedMemory()
        mem.write_word(0x1000, 0xDEADBEEF)
        assert mem.read_word(0x1000) == 0xDEADBEEF

    def test_overwrite(self):
        mem = SimulatedMemory()
        mem.write_word(0x1000, 1)
        mem.write_word(0x1000, 2)
        assert mem.read_word(0x1000) == 2

    def test_distinct_addresses_independent(self):
        mem = SimulatedMemory()
        mem.write_word(0x1000, 10)
        mem.write_word(0x1008, 20)
        assert mem.read_word(0x1000) == 10
        assert mem.read_word(0x1008) == 20

    def test_write_zero_keeps_sparse(self):
        mem = SimulatedMemory()
        mem.write_word(0x1000, 5)
        mem.write_word(0x1000, 0)
        assert mem.read_word(0x1000) == 0
        assert mem.words_written() == 0

    def test_value_truncated_to_64_bits(self):
        mem = SimulatedMemory()
        mem.write_word(0x1000, 1 << 65)
        assert mem.read_word(0x1000) == 0

    def test_unaligned_read_raises(self):
        mem = SimulatedMemory()
        with pytest.raises(MemoryError_):
            mem.read_word(0x1001)

    def test_unaligned_write_raises(self):
        mem = SimulatedMemory()
        with pytest.raises(MemoryError_):
            mem.write_word(0x1004, 1)

    def test_null_access_raises(self):
        mem = SimulatedMemory()
        with pytest.raises(MemoryError_):
            mem.read_word(NULL)

    def test_negative_address_raises(self):
        mem = SimulatedMemory()
        with pytest.raises(MemoryError_):
            mem.write_word(-8, 1)

    def test_words_written_counts_nonzero(self):
        mem = SimulatedMemory()
        for i in range(5):
            mem.write_word(0x1000 + i * WORD_SIZE, i + 1)
        assert mem.words_written() == 5

    @pytest.mark.parametrize("addr", [0, -8, 1, 7, 9, 4097, (1 << 40) + 4])
    def test_faults_store_nothing(self, addr):
        mem = SimulatedMemory()
        with pytest.raises(MemoryError_):
            mem.read_word(addr)
        with pytest.raises(MemoryError_):
            mem.write_word(addr, 1)
        assert mem.words_written() == 0

    def test_unwritten_reads_store_nothing(self):
        mem = SimulatedMemory()
        for addr in (8, 1 << 20, 1 << 44):
            assert mem.read_word(addr) == 0
        assert mem.words_written() == 0

    def test_zero_write_to_fresh_address_stores_nothing(self):
        mem = SimulatedMemory()
        mem.write_word(0x2000, 7)
        mem.write_word(1 << 20, 0)
        assert mem.words_written() == 1
        assert mem.read_word(1 << 20) == 0

    def test_census_matches_model_under_churn(self):
        """Overwrites, zeroings and re-writes keep ``words_written`` equal
        to the number of nonzero words, and every read exact."""
        rng = random.Random(1234)
        mem, model = SimulatedMemory(), {}
        addrs = [(1 << 30) + 8 * rng.randrange(4096) for _ in range(200)]
        for _ in range(3000):
            addr = rng.choice(addrs)
            if rng.random() < 0.3:
                assert mem.read_word(addr) == model.get(addr, 0)
            else:
                value = rng.choice([0, 0, 1, 7, 1 << 63, (1 << 64) - 8])
                mem.write_word(addr, value)
                model[addr] = value
        assert mem.words_written() == sum(1 for v in model.values() if v)
        for addr in addrs:
            assert mem.read_word(addr) == model.get(addr, 0)


class TestVirtualAddressSpace:
    def test_reserve_pages_contiguous(self):
        vas = VirtualAddressSpace()
        r1 = vas.reserve_pages(4)
        r2 = vas.reserve_pages(2)
        assert r2.start == r1.end
        assert r1.length == 4 * vas.page_size

    def test_reserve_pages_positive_required(self):
        vas = VirtualAddressSpace()
        with pytest.raises(ValueError):
            vas.reserve_pages(0)

    def test_heap_bytes_reserved(self):
        vas = VirtualAddressSpace()
        vas.reserve_pages(3)
        assert vas.heap_bytes_reserved == 3 * vas.page_size

    def test_owns_heap_address(self):
        vas = VirtualAddressSpace()
        r = vas.reserve_pages(1)
        assert vas.owns_heap_address(r.start)
        assert vas.owns_heap_address(r.end - 8)
        assert not vas.owns_heap_address(r.end)
        assert not vas.owns_heap_address(vas.metadata_base)

    def test_reserve_metadata_alignment(self):
        vas = VirtualAddressSpace()
        vas.reserve_metadata(3)  # misalign the bump pointer
        addr = vas.reserve_metadata(100, align=64)
        assert addr % 64 == 0

    def test_reserve_metadata_disjoint(self):
        vas = VirtualAddressSpace()
        a = vas.reserve_metadata(128)
        b = vas.reserve_metadata(128)
        assert b >= a + 128

    def test_reserve_metadata_validates(self):
        vas = VirtualAddressSpace()
        with pytest.raises(ValueError):
            vas.reserve_metadata(0)
        with pytest.raises(ValueError):
            vas.reserve_metadata(8, align=3)

    def test_metadata_and_heap_regions_disjoint(self):
        vas = VirtualAddressSpace()
        meta = vas.reserve_metadata(1 << 20)
        heap = vas.reserve_pages(128)
        assert meta + (1 << 20) <= heap.start

    def test_reservation_end(self):
        r = Reservation(start=100, length=50)
        assert r.end == 150
