"""Byte-addressable sparse memory model for the IzhiRISC-V system.

The FPGA system keeps the network state in on-chip memory and fetches
instructions from off-chip SDRAM (paper §VI).  The :class:`Memory` class
stores data sparsely in 4 KiB pages so that programs may use widely
separated address regions (instruction image, neuron state, stack, MMIO)
without allocating the whole 32-bit space; the :class:`MemoryMap` helper
names those regions and carries the latency attributes used by the cache
and bus timing models.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["MemoryError32", "Region", "MemoryMap", "Memory", "DEFAULT_MEMORY_MAP"]

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1
_MASK32 = 0xFFFFFFFF


class MemoryError32(Exception):
    """Raised on misaligned or out-of-map memory accesses."""


@dataclass(frozen=True)
class Region:
    """A named address region with timing attributes.

    Attributes
    ----------
    name:
        Human-readable region name (``"sdram"``, ``"onchip"``, ...).
    base, size:
        Byte range ``[base, base + size)``.
    access_cycles:
        Raw access latency in core cycles seen on a cache miss / uncached
        access (1 for on-chip SRAM, tens of cycles for SDRAM).
    cacheable:
        Whether accesses to the region go through the caches.
    """

    name: str
    base: int
    size: int
    access_cycles: int = 1
    cacheable: bool = True

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass
class MemoryMap:
    """An ordered collection of non-overlapping :class:`Region` objects."""

    regions: List[Region] = field(default_factory=list)

    def add(self, region: Region) -> None:
        for existing in self.regions:
            if region.base < existing.end and existing.base < region.end:
                raise MemoryError32(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.base)

    def find(self, address: int) -> Optional[Region]:
        """Return the region containing ``address`` or ``None``."""
        for region in self.regions:
            if region.contains(address):
                return region
        return None

    def region(self, name: str) -> Region:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(f"no region named {name!r}")


def DEFAULT_MEMORY_MAP() -> MemoryMap:
    """Memory map mirroring the paper's FPGA system.

    * ``sdram``  — off-chip SDRAM holding the instruction image (slow).
    * ``onchip`` — on-chip memory holding the network state (fast).
    * ``stack``  — top of on-chip memory used for the call stack.
    * ``mmio``   — a small control/status region (cycle counter, halt).
    """
    mm = MemoryMap()
    mm.add(Region("sdram", base=0x0000_0000, size=8 << 20, access_cycles=12, cacheable=True))
    mm.add(Region("onchip", base=0x1000_0000, size=4 << 20, access_cycles=1, cacheable=True))
    mm.add(Region("stack", base=0x2000_0000, size=1 << 20, access_cycles=1, cacheable=True))
    mm.add(Region("mmio", base=0xF000_0000, size=1 << 12, access_cycles=1, cacheable=False))
    return mm


class Memory:
    """Sparse little-endian byte-addressable memory."""

    def __init__(self, memory_map: Optional[MemoryMap] = None, *, strict: bool = False) -> None:
        """Create an empty memory.

        Parameters
        ----------
        memory_map:
            Optional map used to answer :meth:`region_of`.  When ``strict``
            is true, accesses outside any region raise
            :class:`MemoryError32`.
        strict:
            Enforce that all accesses fall inside a mapped region.
        """
        self.memory_map = memory_map
        self.strict = strict
        self._pages: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------ #
    # Page management
    # ------------------------------------------------------------------ #
    def _page(self, address: int) -> Tuple[bytearray, int]:
        page_index = address >> _PAGE_BITS
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_index] = page
        return page, address & _PAGE_MASK

    def _check(self, address: int, size: int) -> None:
        """Check a ``size``-byte access: in the 32-bit space and, if strict, fully mapped."""
        if address < 0 or address + size > (1 << 32):
            raise MemoryError32(f"address {address:#x} outside 32-bit space")
        if self.strict and self.memory_map is not None:
            cursor, end = address, address + size
            while cursor < end:
                region = self.memory_map.find(cursor)
                if region is None:
                    raise MemoryError32(f"access to unmapped address {cursor:#x}")
                cursor = region.end

    @staticmethod
    def _spans(address: int, size: int) -> Iterable[Tuple[int, int]]:
        """Split ``[address, address + size)`` at page boundaries into ``(address, length)``."""
        end = address + size
        while address < end:
            length = min(_PAGE_SIZE - (address & _PAGE_MASK), end - address)
            yield address, length
            address += length

    def region_of(self, address: int) -> Optional[Region]:
        """Return the region containing ``address`` (if a map is attached)."""
        if self.memory_map is None:
            return None
        return self.memory_map.find(address)

    # ------------------------------------------------------------------ #
    # Byte / halfword / word accessors (little endian)
    # ------------------------------------------------------------------ #
    def load_byte(self, address: int) -> int:
        # Reads never allocate: an unwritten page reads as zeros.
        self._check(address, 1)
        page = self._pages.get(address >> _PAGE_BITS)
        return 0 if page is None else page[address & _PAGE_MASK]

    def store_byte(self, address: int, value: int) -> None:
        self._check(address, 1)
        page, offset = self._page(address)
        page[offset] = value & 0xFF

    def load_half(self, address: int) -> int:
        if address % 2 != 0:
            raise MemoryError32(f"misaligned halfword load at {address:#x}")
        return self.load_byte(address) | (self.load_byte(address + 1) << 8)

    def store_half(self, address: int, value: int) -> None:
        if address % 2 != 0:
            raise MemoryError32(f"misaligned halfword store at {address:#x}")
        self.store_byte(address, value)
        self.store_byte(address + 1, value >> 8)

    def load_word(self, address: int) -> int:
        # Word accesses are the ISS hot path: the page lookup and the
        # bounds check are inlined (an aligned word never straddles a
        # 4 KiB page, so no byte-wise fallback is needed).
        if address & 3:
            raise MemoryError32(f"misaligned word load at {address:#x}")
        if address < 0 or address + 4 > (1 << 32):
            raise MemoryError32(f"address {address:#x} outside 32-bit space")
        if self.strict and self.memory_map is not None and self.memory_map.find(address) is None:
            raise MemoryError32(f"access to unmapped address {address:#x}")
        page = self._pages.get(address >> _PAGE_BITS)
        if page is None:
            return 0
        offset = address & _PAGE_MASK
        return int.from_bytes(page[offset : offset + 4], "little")

    def store_word(self, address: int, value: int) -> None:
        if address & 3:
            raise MemoryError32(f"misaligned word store at {address:#x}")
        if address < 0 or address + 4 > (1 << 32):
            raise MemoryError32(f"address {address:#x} outside 32-bit space")
        if self.strict and self.memory_map is not None and self.memory_map.find(address) is None:
            raise MemoryError32(f"access to unmapped address {address:#x}")
        page = self._pages.get(address >> _PAGE_BITS)
        if page is None:
            page, _ = self._page(address)
        offset = address & _PAGE_MASK
        page[offset : offset + 4] = (value & _MASK32).to_bytes(4, "little")

    # ------------------------------------------------------------------ #
    # Bulk helpers
    # ------------------------------------------------------------------ #
    def load_program(self, words: Iterable[int], *, base: int) -> None:
        """Copy a sequence of 32-bit words into memory starting at ``base``.

        Each word is masked to 32 bits, as :meth:`store_word` does.
        """
        if base & 3:
            raise MemoryError32(f"misaligned word store at {base:#x}")
        packed = [word & _MASK32 for word in words]
        self.load_bytes(struct.pack(f"<{len(packed)}I", *packed), base=base)

    def load_bytes(self, data: bytes, *, base: int) -> None:
        """Copy raw bytes into memory starting at ``base``.

        The whole block is checked before any byte is written, then copied
        one page slice at a time.
        """
        view = memoryview(data).cast("B")
        self._check(base, len(view))
        done = 0
        for address, length in self._spans(base, len(view)):
            page, offset = self._page(address)
            page[offset : offset + length] = view[done : done + length]
            done += length

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address`` (unwritten bytes read 0)."""
        self._check(address, length)
        out = bytearray(length)
        done = 0
        for start, size in self._spans(address, length):
            page = self._pages.get(start >> _PAGE_BITS)
            if page is not None:
                offset = start & _PAGE_MASK
                out[done : done + size] = page[offset : offset + size]
            done += size
        return bytes(out)

    def read_words(self, address: int, count: int) -> List[int]:
        """Read ``count`` consecutive words starting at ``address``."""
        if address & 3:
            raise MemoryError32(f"misaligned word load at {address:#x}")
        return list(struct.unpack(f"<{count}I", self.read_bytes(address, 4 * count)))

    @property
    def allocated_bytes(self) -> int:
        """Number of bytes of backing store currently allocated."""
        return len(self._pages) * _PAGE_SIZE
