"""Instruction-accurate functional simulator (ISS) for IzhiRISC-V.

Executes RV32IM plus the neuromorphic extension against a
:class:`~repro.sim.memory.Memory`, an :class:`~repro.sim.npu.NPU` and a
:class:`~repro.sim.dcu.DCU`.  The ISS is the semantic reference: the
cycle-level pipeline model (:mod:`repro.sim.pipeline`) drives it one
instruction at a time and adds timing on top, so both simulators execute
exactly the same architectural behaviour.

Program termination follows a small environment convention:

* ``ebreak`` halts immediately.
* ``ecall`` with ``a7 == 93`` halts with exit code ``a0`` (Linux-style).
* ``ecall`` with ``a7 == 64`` writes ``a2`` bytes from address ``a1``
  to the simulated stdout.
* A word store to ``MMIO_HALT`` halts with the stored value as exit code;
  a store to ``MMIO_PUTCHAR`` appends a character to the simulated stdout;
  a store to ``MMIO_PRINT_INT`` records the value in ``debug_values``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.encoding import sign_extend, to_signed32, to_unsigned32
from ..isa.instructions import DecodedInstr, IllegalInstructionError, decode
from .dcu import DCU
from .memory import Memory, MemoryError32
from .npu import NMConfig, NPU

__all__ = [
    "ExecRecord",
    "SimulationError",
    "FunctionalSimulator",
    "MMIO_BASE",
    "MMIO_HALT",
    "MMIO_PUTCHAR",
    "MMIO_PRINT_INT",
    "MMIO_CYCLE_LOW",
]

MASK32 = 0xFFFFFFFF

#: Base of the memory-mapped control/status registers.
MMIO_BASE = 0xF000_0000
#: Writing any word here halts the simulation (value = exit code).
MMIO_HALT = MMIO_BASE + 0x0
#: Writing a word here emits its low byte to the simulated stdout.
MMIO_PUTCHAR = MMIO_BASE + 0x4
#: Writing a word here records the signed value in ``debug_values``.
MMIO_PRINT_INT = MMIO_BASE + 0x8
#: Reading this word returns the low 32 bits of the retired-instruction count.
MMIO_CYCLE_LOW = MMIO_BASE + 0xC


class SimulationError(Exception):
    """Raised on illegal execution conditions (bad PC, unknown CSR, ...)."""


@dataclass
class ExecRecord:
    """Per-instruction execution record consumed by the timing models."""

    pc: int
    instr: DecodedInstr
    next_pc: int
    #: Effective address of the data-memory access, if any.
    mem_address: Optional[int] = None
    #: ``True`` when the access is a write (stores and ``nmpn``).
    mem_is_write: bool = False
    #: Branch/jump outcome (``True`` when the PC was redirected).
    control_transfer: bool = False
    #: Spike flag produced by ``nmpn`` (for convenience in traces).
    spike: Optional[int] = None


class FunctionalSimulator:
    """Executes instructions one at a time with full architectural state.

    Parameters
    ----------
    fast_dispatch:
        ``True`` (default) executes through predecoded per-PC handlers
        (see :mod:`repro.sim.dispatch`); ``False`` retires every
        instruction through the legacy ``if/elif`` semantics chain.  The
        two paths are bit-identical — the flag exists for differential
        testing and baseline benchmarking.
    """

    def __init__(
        self,
        memory: Optional[Memory] = None,
        *,
        nm_config: Optional[NMConfig] = None,
        reset_pc: int = 0,
        stack_pointer: Optional[int] = 0x2000_FFF0,
        fast_dispatch: bool = True,
    ) -> None:
        self.memory = memory if memory is not None else Memory()
        self.nm_config = nm_config if nm_config is not None else NMConfig()
        self.npu = NPU(self.nm_config)
        self.dcu = DCU(self.nm_config)
        self.regs: List[int] = [0] * 32
        self.pc: int = reset_pc
        self.halted: bool = False
        self.exit_code: int = 0
        self.instret: int = 0
        self.csrs: Dict[int, int] = {}
        self.stdout = bytearray()
        self.debug_values: List[int] = []
        self.spike_count: int = 0
        #: Optional callable invoked after each retired instruction.
        self.trace_hook: Optional[Callable[["FunctionalSimulator", ExecRecord], None]] = None
        self.fast_dispatch = fast_dispatch
        self._decode_cache: Dict[int, DecodedInstr] = {}
        #: PC -> (record_handler, fast_handler); see repro.sim.dispatch.
        #: The corresponding DecodedInstr stays in ``_decode_cache``.
        self._compiled: Dict[int, Tuple[Callable[[int], ExecRecord], Callable[[int], int]]] = {}
        if stack_pointer is not None:
            self.regs[2] = to_unsigned32(stack_pointer)

    # ------------------------------------------------------------------ #
    # Register helpers
    # ------------------------------------------------------------------ #
    def read_reg(self, index: int) -> int:
        """Read register ``index`` as an unsigned 32-bit value."""
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        """Write register ``index`` (writes to x0 are discarded)."""
        if index != 0:
            self.regs[index] = value & MASK32

    def read_reg_signed(self, index: int) -> int:
        return to_signed32(self.read_reg(index))

    # ------------------------------------------------------------------ #
    # Program loading
    # ------------------------------------------------------------------ #
    def load_program(self, program, *, set_pc: bool = True) -> None:
        """Load an assembled :class:`~repro.isa.assembler.Program` image."""
        self.memory.load_program(program.words, base=program.origin)
        if set_pc:
            self.pc = program.entry_point
        self.invalidate_dispatch()

    def invalidate_dispatch(self) -> None:
        """Drop the decode cache and all predecoded handlers.

        Required after self-modifying code or after replacing ``memory``,
        ``npu`` or ``dcu`` (the compiled handlers capture those objects by
        reference); :meth:`load_program` calls it automatically.
        """
        self._decode_cache.clear()
        self._compiled.clear()

    # ------------------------------------------------------------------ #
    # Fetch / decode / execute
    # ------------------------------------------------------------------ #
    def fetch_decode(self, pc: int) -> DecodedInstr:
        """Fetch and decode the instruction at ``pc`` (with a decode cache)."""
        cached = self._decode_cache.get(pc)
        if cached is not None:
            return cached
        if pc % 4 != 0:
            raise SimulationError(f"misaligned PC {pc:#x}")
        word = self.memory.load_word(pc)
        instr = decode(word)
        self._decode_cache[pc] = instr
        return instr

    def peek_decode(self, pc: int) -> Optional[DecodedInstr]:
        """Best-effort decode for lookahead consumers (the hazard unit).

        Returns ``None`` instead of raising when ``pc`` is misaligned,
        unmapped, or holds a word that does not decode (data following
        code, halt boundaries), so speculative peeks can never abort a
        simulation that would otherwise halt cleanly.
        """
        try:
            return self.fetch_decode(pc)
        except (SimulationError, IllegalInstructionError, MemoryError32):
            return None

    def _compile_at(self, pc: int):
        from .dispatch import compile_entry

        # The handlers live in ``self._compiled``: bound to a weak proxy they
        # form no reference cycle with the simulator, so a dropped simulator
        # and its memory pages are freed at once, not at the next cyclic GC.
        entry = compile_entry(weakref.proxy(self), self.fetch_decode(pc))
        self._compiled[pc] = entry
        return entry

    def step(self) -> ExecRecord:
        """Execute a single instruction and return its :class:`ExecRecord`."""
        if self.halted:
            raise SimulationError("cannot step a halted simulator")
        pc = self.pc
        if self.fast_dispatch:
            entry = self._compiled.get(pc)
            if entry is None:
                entry = self._compile_at(pc)
            record = entry[0](pc)
        else:
            record = self._execute(pc, self.fetch_decode(pc))
        self.pc = record.next_pc
        self.instret += 1
        if self.trace_hook is not None:
            self.trace_hook(self, record)
        return record

    def run(self, *, max_instructions: int = 10_000_000) -> int:
        """Run until the program halts; returns the number of instructions.

        With ``fast_dispatch`` enabled and no ``trace_hook`` attached this
        executes through the record-free handler loop — the predecoded
        handlers advance the architectural state without allocating an
        :class:`ExecRecord` per instruction.

        Raises
        ------
        SimulationError
            If the instruction budget is exhausted before the program halts.
        """
        if not self.fast_dispatch or self.trace_hook is not None:
            executed = 0
            while not self.halted:
                if executed >= max_instructions:
                    raise SimulationError(
                        f"instruction budget of {max_instructions} exhausted at pc={self.pc:#x}"
                    )
                self.step()
                executed += 1
            return executed
        executed = 0
        compiled = self._compiled
        pc = self.pc
        while not self.halted:
            if executed >= max_instructions:
                raise SimulationError(
                    f"instruction budget of {max_instructions} exhausted at pc={self.pc:#x}"
                )
            entry = compiled.get(pc)
            if entry is None:
                entry = self._compile_at(pc)
            pc = entry[1](pc)
            self.pc = pc
            self.instret += 1
            executed += 1
        return executed

    # ------------------------------------------------------------------ #
    # Instruction semantics
    # ------------------------------------------------------------------ #
    def _execute(self, pc: int, instr: DecodedInstr) -> ExecRecord:
        name = instr.name
        rs1_u = self.read_reg(instr.rs1)
        rs2_u = self.read_reg(instr.rs2)
        rs1_s = to_signed32(rs1_u)
        rs2_s = to_signed32(rs2_u)
        imm = instr.imm
        next_pc = (pc + 4) & MASK32
        record = ExecRecord(pc=pc, instr=instr, next_pc=next_pc)

        # ---------------- ALU register-immediate ---------------- #
        if name == "addi":
            self.write_reg(instr.rd, rs1_u + imm)
        elif name == "slti":
            self.write_reg(instr.rd, int(rs1_s < imm))
        elif name == "sltiu":
            self.write_reg(instr.rd, int(rs1_u < to_unsigned32(imm)))
        elif name == "xori":
            self.write_reg(instr.rd, rs1_u ^ to_unsigned32(imm))
        elif name == "ori":
            self.write_reg(instr.rd, rs1_u | to_unsigned32(imm))
        elif name == "andi":
            self.write_reg(instr.rd, rs1_u & to_unsigned32(imm))
        elif name == "slli":
            self.write_reg(instr.rd, rs1_u << (imm & 0x1F))
        elif name == "srli":
            self.write_reg(instr.rd, rs1_u >> (imm & 0x1F))
        elif name == "srai":
            self.write_reg(instr.rd, rs1_s >> (imm & 0x1F))
        # ---------------- ALU register-register ---------------- #
        elif name == "add":
            self.write_reg(instr.rd, rs1_u + rs2_u)
        elif name == "sub":
            self.write_reg(instr.rd, rs1_u - rs2_u)
        elif name == "sll":
            self.write_reg(instr.rd, rs1_u << (rs2_u & 0x1F))
        elif name == "slt":
            self.write_reg(instr.rd, int(rs1_s < rs2_s))
        elif name == "sltu":
            self.write_reg(instr.rd, int(rs1_u < rs2_u))
        elif name == "xor":
            self.write_reg(instr.rd, rs1_u ^ rs2_u)
        elif name == "srl":
            self.write_reg(instr.rd, rs1_u >> (rs2_u & 0x1F))
        elif name == "sra":
            self.write_reg(instr.rd, rs1_s >> (rs2_u & 0x1F))
        elif name == "or":
            self.write_reg(instr.rd, rs1_u | rs2_u)
        elif name == "and":
            self.write_reg(instr.rd, rs1_u & rs2_u)
        # ---------------- RV32M ---------------- #
        elif name == "mul":
            self.write_reg(instr.rd, rs1_s * rs2_s)
        elif name == "mulh":
            self.write_reg(instr.rd, (rs1_s * rs2_s) >> 32)
        elif name == "mulhsu":
            self.write_reg(instr.rd, (rs1_s * rs2_u) >> 32)
        elif name == "mulhu":
            self.write_reg(instr.rd, (rs1_u * rs2_u) >> 32)
        elif name == "div":
            if rs2_s == 0:
                self.write_reg(instr.rd, MASK32)
            elif rs1_s == -(1 << 31) and rs2_s == -1:
                self.write_reg(instr.rd, rs1_s)
            else:
                self.write_reg(instr.rd, int(abs(rs1_s) // abs(rs2_s)) * (1 if (rs1_s < 0) == (rs2_s < 0) else -1))
        elif name == "divu":
            self.write_reg(instr.rd, MASK32 if rs2_u == 0 else rs1_u // rs2_u)
        elif name == "rem":
            if rs2_s == 0:
                self.write_reg(instr.rd, rs1_s)
            elif rs1_s == -(1 << 31) and rs2_s == -1:
                self.write_reg(instr.rd, 0)
            else:
                self.write_reg(instr.rd, rs1_s - (int(abs(rs1_s) // abs(rs2_s)) * (1 if (rs1_s < 0) == (rs2_s < 0) else -1)) * rs2_s)
        elif name == "remu":
            self.write_reg(instr.rd, rs1_u if rs2_u == 0 else rs1_u % rs2_u)
        # ---------------- Upper immediates ---------------- #
        elif name == "lui":
            self.write_reg(instr.rd, imm)
        elif name == "auipc":
            self.write_reg(instr.rd, pc + imm)
        # ---------------- Control transfer ---------------- #
        elif name == "jal":
            self.write_reg(instr.rd, pc + 4)
            record.next_pc = (pc + imm) & MASK32
            record.control_transfer = True
        elif name == "jalr":
            target = (rs1_u + imm) & ~1 & MASK32
            self.write_reg(instr.rd, pc + 4)
            record.next_pc = target
            record.control_transfer = True
        elif instr.is_branch:
            taken = {
                "beq": rs1_u == rs2_u,
                "bne": rs1_u != rs2_u,
                "blt": rs1_s < rs2_s,
                "bge": rs1_s >= rs2_s,
                "bltu": rs1_u < rs2_u,
                "bgeu": rs1_u >= rs2_u,
            }[name]
            if taken:
                record.next_pc = (pc + imm) & MASK32
                record.control_transfer = True
        # ---------------- Memory ---------------- #
        elif instr.is_load:
            address = (rs1_u + imm) & MASK32
            record.mem_address = address
            if address >= MMIO_BASE:
                value = self._mmio_load(address, name)
            elif name == "lw":
                value = self.memory.load_word(address)
            elif name == "lh":
                value = to_unsigned32(sign_extend(self.memory.load_half(address), 16))
            elif name == "lhu":
                value = self.memory.load_half(address)
            elif name == "lb":
                value = to_unsigned32(sign_extend(self.memory.load_byte(address), 8))
            else:  # lbu
                value = self.memory.load_byte(address)
            self.write_reg(instr.rd, value)
        elif instr.is_store:
            address = (rs1_u + imm) & MASK32
            record.mem_address = address
            record.mem_is_write = True
            if address >= MMIO_BASE:
                self._mmio_store(address, rs2_u)
            elif name == "sw":
                self.memory.store_word(address, rs2_u)
            elif name == "sh":
                self.memory.store_half(address, rs2_u)
            else:  # sb
                self.memory.store_byte(address, rs2_u)
        # ---------------- System ---------------- #
        elif name == "fence":
            pass
        elif name == "ecall":
            self._ecall()
        elif name == "ebreak":
            self.halted = True
        elif name in ("csrrw", "csrrs", "csrrc"):
            old = self.csrs.get(imm, 0)
            self.write_reg(instr.rd, old)
            if name == "csrrw":
                self.csrs[imm] = rs1_u
            elif name == "csrrs" and instr.rs1 != 0:
                self.csrs[imm] = old | rs1_u
            elif name == "csrrc" and instr.rs1 != 0:
                self.csrs[imm] = old & ~rs1_u & MASK32
        # ---------------- Neuromorphic extension ---------------- #
        elif name == "nmldl":
            self.nm_config.load_params_words(rs1_u, rs2_u)
            self.write_reg(instr.rd, 1)
        elif name == "nmldh":
            self.nm_config.load_timestep_word(rs1_u)
            self.write_reg(instr.rd, 1)
        elif name == "nmpn":
            vu_address = self.read_reg(instr.rd)
            new_vu, spike = self.npu.execute_nmpn(rs1_u, rs2_u)
            self.memory.store_word(vu_address & MASK32, new_vu)
            self.write_reg(instr.rd, spike)
            record.mem_address = vu_address & MASK32
            record.mem_is_write = True
            record.spike = spike
            self.spike_count += spike
        elif name == "nmdec":
            self.write_reg(instr.rd, self.dcu.execute_nmdec(rs1_u, rs2_u))
        else:  # pragma: no cover - decode() only produces known names
            raise SimulationError(f"unimplemented instruction {name!r} at pc={pc:#x}")

        return record

    # ------------------------------------------------------------------ #
    # Environment calls and MMIO
    # ------------------------------------------------------------------ #
    def _ecall(self) -> None:
        syscall = self.read_reg(17)  # a7
        if syscall == 93:  # exit
            self.exit_code = to_signed32(self.read_reg(10))
            self.halted = True
        elif syscall == 64:  # write(fd, buf, len)
            buf = self.read_reg(11)
            length = self.read_reg(12)
            self.stdout.extend(self.memory.read_bytes(buf, length))
        else:
            # Unknown syscalls are recorded but otherwise ignored.
            self.debug_values.append(-syscall)

    def _mmio_load(self, address: int, name: str) -> int:
        """Execute a load from the MMIO region with proper width semantics.

        Only ``MMIO_CYCLE_LOW`` is readable; narrow loads see the same
        byte lanes a hardware bus would deliver (truncation plus
        sign-extension for ``lh``/``lb``).  Loads from any other MMIO
        address raise a :class:`SimulationError` instead of falling
        through to RAM.
        """
        if address == MMIO_CYCLE_LOW:
            value = self.instret & MASK32
            if name == "lw":
                return value
            if name == "lhu":
                return value & 0xFFFF
            if name == "lh":
                half = value & 0xFFFF
                return half | 0xFFFF0000 if half & 0x8000 else half
            if name == "lbu":
                return value & 0xFF
            byte = value & 0xFF  # lb
            return byte | 0xFFFFFF00 if byte & 0x80 else byte
        raise SimulationError(f"load from unknown MMIO address {address:#x}")

    def _mmio_store(self, address: int, value: int) -> None:
        if address == MMIO_HALT:
            self.exit_code = to_signed32(value)
            self.halted = True
        elif address == MMIO_PUTCHAR:
            self.stdout.append(value & 0xFF)
        elif address == MMIO_PRINT_INT:
            self.debug_values.append(to_signed32(value))
        else:
            raise SimulationError(f"store to unknown MMIO address {address:#x}")

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def stdout_text(self) -> str:
        """Simulated stdout decoded as UTF-8 (replacement on errors)."""
        return self.stdout.decode("utf-8", errors="replace")
