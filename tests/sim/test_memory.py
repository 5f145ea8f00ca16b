"""Tests for the sparse memory model and memory map."""

import pytest

from repro.sim import DEFAULT_MEMORY_MAP, Memory, MemoryError32, MemoryMap, Region


class TestRegions:
    def test_default_map_regions(self):
        mm = DEFAULT_MEMORY_MAP()
        assert {r.name for r in mm.regions} >= {"sdram", "onchip", "stack", "mmio"}

    def test_find(self):
        mm = DEFAULT_MEMORY_MAP()
        assert mm.find(0x1000_0010).name == "onchip"
        assert mm.find(0xF000_0000).name == "mmio"
        assert mm.find(0x9000_0000) is None

    def test_region_lookup_by_name(self):
        mm = DEFAULT_MEMORY_MAP()
        assert mm.region("sdram").cacheable
        assert not mm.region("mmio").cacheable
        with pytest.raises(KeyError):
            mm.region("nvram")

    def test_overlap_rejected(self):
        mm = MemoryMap()
        mm.add(Region("a", base=0, size=0x1000))
        with pytest.raises(MemoryError32):
            mm.add(Region("b", base=0x800, size=0x1000))

    def test_contains(self):
        r = Region("x", base=0x100, size=0x100)
        assert r.contains(0x100) and r.contains(0x1FF) and not r.contains(0x200)


class TestMemoryAccess:
    def test_word_roundtrip(self):
        mem = Memory()
        mem.store_word(0x1000, 0xDEADBEEF)
        assert mem.load_word(0x1000) == 0xDEADBEEF

    def test_little_endian_bytes(self):
        mem = Memory()
        mem.store_word(0x0, 0x0A0B0C0D)
        assert mem.load_byte(0x0) == 0x0D
        assert mem.load_byte(0x3) == 0x0A

    def test_half_word(self):
        mem = Memory()
        mem.store_half(0x10, 0xBEEF)
        assert mem.load_half(0x10) == 0xBEEF
        mem.store_word(0x20, 0x12345678)
        assert mem.load_half(0x20) == 0x5678
        assert mem.load_half(0x22) == 0x1234

    def test_unwritten_memory_reads_zero(self):
        assert Memory().load_word(0x123450) == 0

    def test_misaligned_word_raises(self):
        mem = Memory()
        with pytest.raises(MemoryError32):
            mem.load_word(0x1002)
        with pytest.raises(MemoryError32):
            mem.store_word(0x1001, 1)

    def test_misaligned_half_raises(self):
        with pytest.raises(MemoryError32):
            Memory().load_half(0x3)

    def test_store_masks_to_32bit(self):
        mem = Memory()
        mem.store_word(0x0, -1)
        assert mem.load_word(0x0) == 0xFFFFFFFF

    def test_strict_mode(self):
        mem = Memory(DEFAULT_MEMORY_MAP(), strict=True)
        mem.store_word(0x1000_0000, 5)
        with pytest.raises(MemoryError32):
            mem.store_word(0x9000_0000, 5)

    def test_out_of_range_address(self):
        with pytest.raises(MemoryError32):
            Memory().store_word(1 << 33, 0)

    def test_cross_page_word(self):
        mem = Memory()
        # A word can never be misaligned across a page with 4-byte alignment,
        # but bytes around a page boundary must still work.
        base = 0xFFC
        mem.store_word(base, 0x11223344)
        assert mem.load_word(base) == 0x11223344
        mem.store_byte(0xFFF, 0xAA)
        mem.store_byte(0x1000, 0xBB)
        assert mem.load_byte(0xFFF) == 0xAA
        assert mem.load_byte(0x1000) == 0xBB


class TestBulkHelpers:
    def test_load_program(self):
        mem = Memory()
        mem.load_program([1, 2, 3], base=0x100)
        assert mem.read_words(0x100, 3) == [1, 2, 3]

    def test_load_and_read_bytes(self):
        mem = Memory()
        mem.load_bytes(b"hello", base=0x200)
        assert mem.read_bytes(0x200, 5) == b"hello"

    def test_allocated_bytes_is_sparse(self):
        mem = Memory()
        mem.store_word(0x0, 1)
        mem.store_word(0x4000_0000, 1)
        assert mem.allocated_bytes == 2 * 4096

    def test_block_at_unaligned_base_crosses_page(self):
        mem = Memory()
        mem.load_bytes(b"\x01\x02\x03\x04\x05\x06\x07", base=0xFFE)
        assert mem.read_bytes(0xFFC, 11) == b"\x00\x00\x01\x02\x03\x04\x05\x06\x07\x00\x00"
        assert mem.load_byte(0xFFF) == 0x02 and mem.load_byte(0x1000) == 0x03
        assert mem.load_word(0x1000) == 0x06050403
        assert mem.allocated_bytes == 2 * 4096

    def test_block_spanning_three_pages(self):
        mem = Memory()
        data = bytes(range(256)) * 20  # 5120 bytes from 0x1F00 to 0x3300
        mem.load_bytes(data, base=0x1F00)
        assert mem.allocated_bytes == 3 * 4096
        assert mem.read_bytes(0x1F00, len(data)) == data
        assert mem.read_words(0x2000, 2) == [
            int.from_bytes(data[0x100:0x104], "little"),
            int.from_bytes(data[0x104:0x108], "little"),
        ]

    def test_strict_block_leaving_the_map_writes_nothing(self):
        mem = Memory(DEFAULT_MEMORY_MAP(), strict=True)
        onchip_end = mem.memory_map.region("onchip").end
        with pytest.raises(MemoryError32):
            mem.load_bytes(b"\xAA" * 8, base=onchip_end - 4)
        assert mem.allocated_bytes == 0
        mem.load_bytes(b"\xAA" * 4, base=onchip_end - 4)  # the mapped head alone is fine
        assert mem.load_word(onchip_end - 4) == 0xAAAAAAAA

    def test_block_past_32bit_space_raises(self):
        mem = Memory()
        with pytest.raises(MemoryError32):
            mem.load_bytes(b"\x00" * 8, base=(1 << 32) - 4)
        with pytest.raises(MemoryError32):
            mem.load_program([1, 2], base=(1 << 32) - 4)
        with pytest.raises(MemoryError32):
            mem.read_bytes((1 << 32) - 4, 8)
        assert mem.allocated_bytes == 0

    def test_load_program_masks_like_store_word(self):
        words = [-1, -2, 1 << 32 | 7, 0x8000_0000]
        bulk, single = Memory(), Memory()
        bulk.load_program(words, base=0x40)
        for i, word in enumerate(words):
            single.store_word(0x40 + 4 * i, word)
        assert bulk.read_words(0x40, 4) == single.read_words(0x40, 4) == [
            0xFFFFFFFF, 0xFFFFFFFE, 7, 0x8000_0000,
        ]
        with pytest.raises(MemoryError32):
            bulk.load_program([1], base=0x42)

    def test_reads_do_not_allocate(self):
        mem = Memory()
        assert mem.load_word(0x1000_0000) == 0
        assert mem.load_byte(0x2000_0001) == 0
        assert mem.load_half(0x3000_0002) == 0
        assert mem.read_bytes(0x4000_0FFE, 8) == bytes(8)
        assert mem.read_words(0x5000_0000, 3) == [0, 0, 0]
        assert mem.allocated_bytes == 0

    def test_region_of(self):
        mem = Memory(DEFAULT_MEMORY_MAP())
        assert mem.region_of(0x1000_0000).name == "onchip"
        assert Memory().region_of(0x0) is None
