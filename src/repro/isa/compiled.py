"""Per-program compiled traces: pre-decoded threaded code for the executors.

Every run of a :class:`~repro.isa.program.TestProgram` -- golden *and* every
DUT -- used to re-fetch and re-decode each instruction word on every step.
Both are deterministic functions of the immutable program, so this module
compiles a program **once** into a threaded-code list of per-instruction
entries ``(word, instruction, handler)``:

* ``word`` is the 32-bit encoding exactly as the memory image holds it (what
  legacy ``fetch_word`` returned),
* ``instruction`` is the shared decode result (the same object the
  word->Instruction cache in :mod:`repro.isa.decoder` hands the legacy
  path), and
* ``handler`` is the executor's per-mnemonic execute closure, resolved at
  compile time (``None`` for illegal words, which take the trap path).

The shared run loop in :mod:`repro.sim.golden` indexes this list by
``(pc - base) >> 2`` instead of fetching and decoding, falling back to the
generic ``Executor.step`` for anything a compiled entry cannot represent:
misaligned in-range program counters, and words a store has overwritten
since load (self-modifying programs are legal here -- the ``mem.region.code``
coverage point exists precisely because stores may hit the code window).

Compiled traces are cached in the ``compiled_trace`` process cache
(a :class:`~repro.utils.lru.BoundedLRU`) keyed by the program
*fingerprint* (content hash of words + base address), so trials that
regenerate identical programs -- bug-set sweeps, MABFuzz arms replaying
seeds, duplicate mutants -- share one compilation per process, and the
execution subsystem's ``--cache-entries`` knob re-bounds it together with
the golden/DUT run caches (see ``docs/performance.md``).

On top of the per-entry trace this module builds **superblocks**: maximal
straight-line runs of compiled entries, fused so the executors can retire a
whole run in one tight loop instead of paying the shared run loop's
per-step dispatch.  A superblock ends at the first entry that can redirect
or halt execution (branches, jumps, ``mret``, ``ecall``) or that reads or
writes CSRs; branches, jumps, ``mret`` and CSR instructions still run as
the block's final "tail" entry, and only ``ecall`` is left out.  Every
instruction *inside* a block therefore falls through to ``pc + 4`` -- even
when it traps (illegal words, ``ebreak``), because the harness convention
resumes at the next instruction -- which is exactly what lets the fused
loops defer the ``pc`` write to the block exit.  Blocks are built lazily
per entry index (only leaders that execution actually reaches pay the
build) and cached per program in the ``superblock`` process cache, keyed
and bounded the same way (``superblock_*`` counters in
:func:`~repro.utils.lru.process_cache_stats`).  See ``docs/performance.md``
for the formation rules and the run loop's fallback cases.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.isa.decoder import decode_word
from repro.isa.encoding import InstrClass, spec_for
from repro.isa.exceptions import Trap, TrapCause
from repro.isa.program import TestProgram
from repro.utils.lru import process_cache


class CompiledProgram:
    """A program's threaded-code form: one ``(word, instr, handler)`` per slot."""

    __slots__ = ("base_address", "end_address", "entries")

    def __init__(self, base_address: int, entries: Tuple[Tuple, ...]) -> None:
        self.base_address = base_address
        self.end_address = base_address + 4 * len(entries)
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)


def _compile(program: TestProgram) -> CompiledProgram:
    """Pre-decode ``program`` into a :class:`CompiledProgram` (uncached)."""
    # Local import: the ISA layer only reaches into the executor's handler
    # table at compile time, keeping ``import repro.isa`` free of the sim
    # package at module-import time.
    from repro.sim.executor import handler_for

    entries = []
    for word in program.words():
        word &= 0xFFFF_FFFF
        instr = decode_word(word)
        entries.append((word, instr, handler_for(instr)))
    return CompiledProgram(program.base_address, tuple(entries))


#: the process-global compiled-trace cache, keyed by program fingerprint.
_COMPILED_CACHE = process_cache("compiled_trace")


def compile_program(program: TestProgram) -> CompiledProgram:
    """The compiled trace of ``program``, served from the process LRU.

    Deliberately *not* memoised on the program object: live programs (test
    pools, MABFuzz arms) would pin their traces outside the cache bound,
    and the engine's ``--cache-entries`` knob could no longer reclaim the
    memory.  A lookup is one memoised ``fingerprint()`` read plus an LRU
    dict get -- negligible next to a run.
    """
    key = program.fingerprint()
    compiled = _COMPILED_CACHE.lookup(key)
    if compiled is None:
        compiled = _compile(program)
        _COMPILED_CACHE.insert(key, compiled)
    return compiled


# ---------------------------------------------------------------------------
# Superblocks: fused straight-line runs of the compiled trace.
# ---------------------------------------------------------------------------

#: instruction classes that end a superblock, except for the SYSTEM
#: mnemonics in :data:`_INTERIOR_SYSTEM`.  Branches, jumps and ``mret``
#: redirect the pc; ``ecall`` halts the hart; CSR instructions read or
#: write the retirement counters the fused loops batch.  Everything else
#: -- ALU, loads/stores, atomics, fences, mul/div, ``ebreak``, ``wfi`` --
#: commits ``next_pc == pc + 4`` unconditionally, *including* when it
#: traps (the harness convention resumes at the next instruction).
_TERMINATOR_CLASSES = frozenset({
    InstrClass.BRANCH, InstrClass.JUMP, InstrClass.SYSTEM, InstrClass.CSR,
})

#: SYSTEM instructions that fuse as interior entries: ``ebreak`` raises
#: the breakpoint trap and falls through to pc + 4 like any trapping
#: entry, and ``wfi`` is a nop in this harness.
_INTERIOR_SYSTEM = frozenset({"ebreak", "wfi"})

#: terminators that may still execute *inside* a block as its final "tail"
#: entry: branches and jumps commit one ordinary record whose ``next_pc``
#: carries the (possibly redirected) target, and on a misaligned-target
#: trap the trap record's ``next_pc`` is ``pc + 4`` -- either way the
#: block exit pc is simply the tail record's ``next_pc``.  ``mret`` is a
#: redirect tail too: its ``next_pc`` is MEPC, which the fused loops keep
#: exact (their trap arms write it per entry, and a CSR write to it can
#: only be a block's final entry).  CSR instructions are tails of their
#: own kind (``csr_tail``: the batched counters are flushed before them);
#: ``ecall`` is the only hard terminator, since it halts the hart.
_TAIL_CLASSES = frozenset({InstrClass.BRANCH, InstrClass.JUMP})
_TAIL_SYSTEM = frozenset({"mret"})


def falls_through(instr) -> bool:
    """Whether ``instr`` fuses as an interior entry (always exits to pc + 4).

    Illegal words qualify (they trap and resume at the next instruction).
    The DUT's fused loop also asks this of an instruction an injected bug
    substituted at decode time, to end the block after a replacement that
    is not an interior entry.
    """
    if instr.is_illegal:
        return True
    return (spec_for(instr.mnemonic).cls not in _TERMINATOR_CLASSES
            or instr.mnemonic in _INTERIOR_SYSTEM)


#: minimum entries worth fusing.  Even a one-instruction "block" wins for
#: the instrumented DUT executor: the fused loop replaces the whole
#: per-step hook-dispatch chain (fetch/decode recording, observe hooks,
#: retirement bookkeeping), which costs far more than the block dispatch
#: checks, and isolated straight-line instructions between terminators are
#: common in fuzzed programs (~1/3 of non-terminator steps).
MIN_SUPERBLOCK_LENGTH = 1


def dirty_word_span(mem_addr: int, mem_size: int,
                    base_address: int, end_address: int) -> Optional[Tuple[int, int]]:
    """Code-window word indices ``(first, last)`` a committed store dirtied.

    The single source of range math for self-modification tracking: the
    shared run loop's dirty-word set, the fused superblock loops' abort
    check, and the invalidation tests all call this helper, so a store
    spanning the ``end_address`` boundary or brushing ``base_address``
    from below is clamped identically everywhere.  Returns ``None`` when
    ``[mem_addr, mem_addr + mem_size)`` misses the code window entirely
    (in particular a byte store at ``base_address - 1`` dirties nothing).
    """
    if mem_addr >= end_address or mem_addr + mem_size <= base_address:
        return None
    first = max(mem_addr - base_address, 0) >> 2
    last = (min(mem_addr + mem_size, end_address) - base_address - 1) >> 2
    return first, last


class Superblock:
    """One fused straight-line run of compiled entries.

    Attributes:
        start: word index of the block's first entry in the compiled trace.
        length: number of fused entries.
        base_address / end_address: the owning program's code window, so
            the fused loops can run the dirty-store abort check without
            reaching back to the program.
        word_set: ``frozenset`` of the word indices the block spans; the
            run loop dispatches a block only when this is disjoint from
            the dirty-word set (a store into the middle of a fused block
            must re-fetch every subsequent instruction).
        entries: the compiled ``(word, instr, handler)`` slice -- what the
            golden fused loop iterates.
        tail_redirect: ``True`` when the final entry is a branch, jump or
            ``mret``, whose record's ``next_pc`` may leave the straight
            line.  The fused loops need no flag for it: they take the exit
            pc from the last record's ``next_pc`` in every case.
        csr_tail: ``True`` when the final entry is a CSR instruction.  CSR
            reads must observe architecturally exact MINSTRET/MCYCLE, so
            the fused loops flush their batched retirement counters (and
            reset the batch) immediately before executing the tail.
        dut_plan: per-entry execution plan the DUT harness attaches
            lazily on first use (pre-resolved spec/class/register fields
            plus the per-instruction static coverage mask); ``None``
            until then.  The plan is DUT-independent, so one block serves
            every DUT model.
        model_plans: per-model structural-emission plans, keyed by model
            class and attached lazily by ``structural_block_mask``
            overrides, plus the DUT harness's bug-flagged variants of
            ``dut_plan``, keyed by the frozenset of injected bug classes.
            Coverage bit masks are stable for the life of the process and
            the tables they come from depend only on the model class (bug
            flags only on the bug classes), so a resolved plan stays valid
            for as long as the block is cached.
    """

    __slots__ = ("start", "length", "base_address", "end_address",
                 "word_set", "entries", "dut_plan", "model_plans",
                 "tail_redirect", "csr_tail")

    def __init__(self, start: int, entries: Tuple[Tuple, ...],
                 base_address: int, end_address: int,
                 tail_redirect: bool = False, csr_tail: bool = False) -> None:
        self.start = start
        self.length = len(entries)
        self.base_address = base_address
        self.end_address = end_address
        self.word_set = frozenset(range(start, start + len(entries)))
        self.entries = entries
        self.dut_plan = None
        self.model_plans = {}
        self.tail_redirect = tail_redirect
        self.csr_tail = csr_tail


#: table sentinel distinguishing "not built yet" from "not fusable" (None).
_UNBUILT = object()


def illegal_step(executor, instr, pc: int, word: int):
    """Superblock stand-in handler for illegal words.

    Compiled entries carry ``None`` handlers for illegal words and the
    per-step dispatcher raises the illegal-instruction trap itself.  Inside
    a superblock the entry gets this handler instead, so the fused loops'
    existing ``except Trap`` arm commits the identical trap record --
    illegal words are deterministic straight-line entries (trap, fall
    through to pc+4) and no longer terminate block formation.
    """
    raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=word)


class ProgramBlocks:
    """Lazily built superblock table of one compiled program.

    ``at(index)`` returns the superblock *leading at* ``index`` (or
    ``None`` when fewer than :data:`MIN_SUPERBLOCK_LENGTH` fusable entries
    start there).  Blocks are built per leader index on first request, so
    a program only pays for the leaders execution actually reaches; blocks
    starting at different indices may overlap (a jump into the middle of
    one straight-line run simply leads its own block).
    """

    __slots__ = ("_compiled", "_table")

    def __init__(self, compiled: CompiledProgram) -> None:
        self._compiled = compiled
        self._table: List[object] = [_UNBUILT] * len(compiled.entries)

    def at(self, index: int) -> Optional[Superblock]:
        block = self._table[index]
        if block is _UNBUILT:
            block = self._build(index)
            self._table[index] = block
        return block

    def _build(self, index: int) -> Optional[Superblock]:
        entries = self._compiled.entries
        count = len(entries)
        stop = index
        tail_redirect = False
        csr_tail = False
        fused_illegal = False
        while stop < count:
            handler = entries[stop][2]
            if handler is None:
                # Illegal word: a deterministic illegal-instruction trap
                # that falls through to pc+4, so it fuses like any other
                # straight-line entry (via illegal_step below).
                fused_illegal = True
                stop += 1
                continue
            instr = entries[stop][1]
            if not falls_through(instr):
                cls = spec_for(instr.mnemonic).cls
                if cls in _TAIL_CLASSES or instr.mnemonic in _TAIL_SYSTEM:
                    stop += 1  # branch/jump/mret closes the block as its tail
                    tail_redirect = True
                elif cls is InstrClass.CSR:
                    # CSR closes the block as its tail: the fused loops
                    # flush their batched retirement counters right before
                    # it, so its CSR reads/writes are architecturally
                    # exact.  It always falls through (or traps to pc+4),
                    # so no redirect handling is needed.
                    stop += 1
                    csr_tail = True
                break  # ecall: a hard terminator, stepped on its own
            stop += 1
        if stop - index < MIN_SUPERBLOCK_LENGTH:
            return None
        block_entries = entries[index:stop]
        if fused_illegal:
            block_entries = tuple(
                entry if entry[2] is not None
                else (entry[0], entry[1], illegal_step)
                for entry in block_entries)
        compiled = self._compiled
        return Superblock(index, block_entries,
                          compiled.base_address, compiled.end_address,
                          tail_redirect, csr_tail)


#: the process-global superblock-table cache, keyed by program fingerprint.
_SUPERBLOCK_CACHE = process_cache("superblock")


def superblocks_for(program: TestProgram,
                    compiled: Optional[CompiledProgram] = None) -> ProgramBlocks:
    """The superblock table of ``program``, served from the process LRU.

    Pass the already-resolved ``compiled`` trace when the caller holds one
    (the run loop does) to skip a redundant compiled-cache lookup on miss.
    """
    key = program.fingerprint()
    blocks = _SUPERBLOCK_CACHE.lookup(key)
    if blocks is None:
        if compiled is None:
            compiled = compile_program(program)
        blocks = ProgramBlocks(compiled)
        _SUPERBLOCK_CACHE.insert(key, blocks)
    return blocks


# Superblock dispatch can be disabled fleet-wide or per process -- the
# per-entry path is the reference semantics, and CI proves a mixed fleet
# (some workers fused, some not) still agrees bit-for-bit.  Worker
# processes read the environment variable at import, so exporting
# ``REPRO_SUPERBLOCKS=0`` before launching a worker opts just that worker
# out; ``set_superblocks_enabled`` flips the current process at runtime
# (benchmarks and the digest-equality tests toggle it around runs).
_SUPERBLOCKS_ENABLED = (
    os.environ.get("REPRO_SUPERBLOCKS", "1").strip().lower()
    not in ("0", "false", "off", "no"))


def superblocks_enabled() -> bool:
    """Whether run loops in this process dispatch fused superblocks."""
    return _SUPERBLOCKS_ENABLED


def set_superblocks_enabled(enabled: bool) -> None:
    """Enable/disable superblock dispatch for this process."""
    global _SUPERBLOCKS_ENABLED
    _SUPERBLOCKS_ENABLED = bool(enabled)
