"""Tests for the compiled-trace execution substrate.

The trace compiler (:mod:`repro.isa.compiled`) pre-decodes programs into
threaded code; the shared run loop indexes it instead of fetching and
decoding.  Bit-identity of whole corpora is pinned by
``test_hotpath_equivalence.py``; this module covers the substrate's own
mechanics, and the two cases where the loop must *leave* the compiled
trace: self-modifying code and misaligned in-range program counters.
"""

import pytest

from repro.isa import csr as csrdefs
from repro.isa.assembler import encode_instruction
from repro.isa.compiled import (
    compile_program,
    dirty_word_span,
    falls_through,
    set_superblocks_enabled,
    superblocks_enabled,
    superblocks_for,
)
from repro.isa.decoder import decode_word
from repro.isa.generator import SeedGenerator
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl.registry import make_dut
from repro.sim.golden import GoldenModel
from repro.sim.trace import HaltReason
from repro.utils.lru import BoundedLRU, configure_process_caches, process_cache

I = Instruction


def _program(*instructions):
    return TestProgram(instructions=tuple(instructions))


def _digest(result):
    return ([(r.step, r.pc, r.word, r.mnemonic, r.rd, r.rd_value, r.trap,
              r.mem_addr, r.mem_value, r.mem_size, r.csr_addr, r.csr_value,
              r.next_pc, r.trap_tval) for r in result.records],
            result.halt_reason, result.final_registers,
            sorted(result.final_csrs.items()))


@pytest.fixture
def superblocks_off():
    was = superblocks_enabled()
    set_superblocks_enabled(False)
    yield
    set_superblocks_enabled(was)


@pytest.fixture
def shrunk_cache():
    """Empty a registry cache and bound it to 2 entries (bound restored)."""
    touched = []

    def shrink(name):
        cache = process_cache(name)
        touched.append((cache, cache.max_entries))
        cache.clear()
        cache.configure(2)
        return cache

    yield shrink
    for cache, bound in touched:
        cache.configure(bound)


def _distinct_programs(count):
    return [_program(I("addi", rd=1, rs1=0, imm=n), I("ecall"))
            for n in range(count)]


def _run_both_ways(program, max_steps=None):
    """Golden digests with superblocks on and off (flag restored)."""
    golden = GoldenModel()
    was = superblocks_enabled()
    digests = {}
    try:
        for flag in (False, True):
            set_superblocks_enabled(flag)
            digests[flag] = _digest(golden.run(program, max_steps=max_steps))
    finally:
        set_superblocks_enabled(was)
    return digests[True], digests[False]


def _dut_runs_both_ways(dut, program):
    """Whole DUT run results with superblocks off and on (flag restored)."""
    was = superblocks_enabled()
    runs = {}
    try:
        for flag in (False, True):
            set_superblocks_enabled(flag)
            runs[flag] = dut.run(program)
    finally:
        set_superblocks_enabled(was)
    return runs


class TestCompileProgram:
    def test_entries_mirror_decode(self):
        program = _program(I("addi", rd=1, rs1=0, imm=5),
                           I.illegal(0xFFFF_FFFF),
                           I("ecall"))
        compiled = compile_program(program)
        assert len(compiled) == 3
        assert compiled.base_address == program.base_address
        assert compiled.end_address == program.end_address()
        for word, (entry_word, instr, handler) in zip(program.words(),
                                                      compiled.entries):
            assert entry_word == word & 0xFFFF_FFFF
            assert instr is decode_word(word)  # shares the decode cache
            assert (handler is None) == instr.is_illegal

    def test_fingerprint_keyed_sharing(self):
        body = (I("addi", rd=3, rs1=0, imm=9), I("ecall"))
        first = _program(*body)
        twin = _program(*body)  # distinct object, same content
        compiled = compile_program(first)
        cache = process_cache("compiled_trace")
        hits = cache.hits
        assert compile_program(first) is compiled  # served from the LRU
        assert compile_program(twin) is compiled  # fingerprint-keyed reuse
        assert cache.hits == hits + 2
        # Nothing is pinned on the program object: the LRU bound governs
        # all compiled-trace memory (the --cache-entries contract).
        assert "_compiled" not in first.__dict__
        blocks = superblocks_for(first, compiled)
        hits = process_cache("superblock").hits
        assert superblocks_for(twin) is blocks
        assert process_cache("superblock").hits == hits + 1

    def test_lru_bound_and_stats(self, shrunk_cache):
        cache = shrunk_cache("compiled_trace")
        before = cache.stats()
        programs = _distinct_programs(3)
        for program in programs:
            compile_program(program)
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["misses"] - before["misses"] == 3
        assert stats["evictions"] - before["evictions"] == 1
        compile_program(programs[0])  # spilled -> recompiled
        assert cache.misses - before["misses"] == 4
        cache.configure(1)
        assert len(cache) == 1
        with pytest.raises(ValueError):
            cache.configure(0)
        with pytest.raises(ValueError):
            configure_process_caches(0)


class TestBoundedLRU:
    """The LRU behind every process cache (compiled, superblock, runs)."""

    def test_bound_stats_and_refresh(self):
        cache = BoundedLRU(max_entries=2)
        assert cache.lookup("a") is None and cache.misses == 1
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.insert("a", 10)  # re-insert refreshes "a": no eviction
        assert cache.evictions == 0 and cache.lookup("a") == 10
        cache.insert("c", 3)  # spills "b", the least recently used
        assert cache.lookup("b") is None and cache.lookup("a") == 10
        assert cache.stats() == {"hits": 2, "misses": 2, "evictions": 1,
                                 "entries": 2, "max_entries": 2}
        cache.configure(1)  # shrinking spills down to the new bound
        assert len(cache) == 1 and cache.evictions == 2
        assert cache.lookup("a") == 10  # the most recent entry survives
        cache.clear()
        assert len(cache) == 0 and cache.hits == 3  # counters survive
        with pytest.raises(ValueError):
            cache.configure(0)
        with pytest.raises(ValueError):
            BoundedLRU(max_entries=0)


class TestFallbackPaths:
    def test_self_modifying_store_executes_new_word(self):
        """A store into the code window invalidates the compiled entry.

        The program overwrites its own slot 4 (an ``addi x5, x0, 1``) with
        the encoding of ``addi x5, x0, 42`` before reaching it; the commit
        trace must show the *new* instruction, exactly as the fetch-based
        loop always behaved.
        """
        # Materialise the new word into x3 via lui+addi (the exact 32-bit
        # encoding does not fit an addi immediate on its own).
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        program = _program(
            I("lui", rd=1, imm=0x40000),         # x1 = 0x4000_0000 (code base)
            I("lui", rd=3, imm=upper),
            I("addi", rd=3, rs1=3, imm=lower),   # x3 = new_word
            I("sw", rs1=1, rs2=3, imm=20),       # overwrite slot 5
            I("addi", rd=6, rs1=0, imm=7),
            I("addi", rd=5, rs1=0, imm=1),       # slot 5: the victim
            I("ecall"),
        )
        result = GoldenModel().run(program)
        victim = [r for r in result.records if r.pc == program.base_address + 20]
        assert victim, "the overwritten slot must still execute"
        assert victim[0].word == new_word
        assert victim[0].rd == 5 and victim[0].rd_value == 42
        assert result.final_registers[5] == 42
        assert result.halt_reason is HaltReason.ECALL

    def test_self_modifying_store_matches_on_dut(self):
        """Golden and DUT take the same fallback on overwritten words."""
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        program = _program(
            I("lui", rd=1, imm=0x40000),
            I("lui", rd=3, imm=upper),
            I("addi", rd=3, rs1=3, imm=lower),
            I("sw", rs1=1, rs2=3, imm=20),
            I("addi", rd=6, rs1=0, imm=7),
            I("addi", rd=5, rs1=0, imm=1),
            I("ecall"),
        )
        golden = GoldenModel().run(program)
        dut = make_dut("rocket", bugs=[]).run(program)
        assert ([r.arch_key() for r in golden.records]
                == [r.arch_key() for r in dut.execution.records])

    def test_misaligned_mret_target_takes_generic_path(self):
        """mret into a misaligned in-range pc: generic step reports the fault."""
        program = _program(
            I("lui", rd=1, imm=0x40000),            # x1 = base
            I("addi", rd=1, rs1=1, imm=6),          # x1 = base + 6 (misaligned)
            I("csrrw", rd=0, rs1=1, csr=csrdefs.MEPC),
            I("mret"),                              # jump to base + 6
            I("addi", rd=2, rs1=0, imm=1),
            I("ecall"),
        )
        result = GoldenModel().run(program)
        assert result.halt_reason is HaltReason.PC_OUT_OF_RANGE
        final = result.records[-1]
        assert final.trap is not None
        assert final.trap.name == "INSTRUCTION_ADDRESS_MISALIGNED"
        assert final.trap_tval == program.base_address + 6

    def test_compiled_and_step_limit_agree(self):
        """An infinite loop still honours the step limit through the fast path."""
        program = _program(I("jal", rd=0, imm=0))  # tight self-loop
        result = GoldenModel().run(program, max_steps=17)
        assert result.halt_reason is HaltReason.STEP_LIMIT
        assert result.steps == 17


class TestDirtyWordSpan:
    """Boundary regressions for the shared code-window range math.

    Every consumer (the run loop's dirty-word set, both fused loops'
    abort checks) goes through :func:`dirty_word_span`, so these pins
    cover them all at once.
    """

    BASE = 0x4000_0000
    END = BASE + 16  # a four-word code window

    def test_aligned_word_store_inside_window(self):
        assert dirty_word_span(self.BASE + 8, 4, self.BASE, self.END) == (2, 2)

    def test_sd_across_an_interior_word_boundary(self):
        # An 8-byte store at +2 touches bytes 2..9: words 0, 1 and 2.
        assert dirty_word_span(self.BASE + 2, 8, self.BASE, self.END) == (0, 2)

    def test_sd_spanning_the_end_boundary_clamps(self):
        # Bytes 12..19: only word 3 is inside the window.
        assert dirty_word_span(self.BASE + 12, 8, self.BASE, self.END) == (3, 3)

    def test_store_at_end_address_misses(self):
        assert dirty_word_span(self.END, 8, self.BASE, self.END) is None

    def test_byte_store_just_below_base_misses(self):
        assert dirty_word_span(self.BASE - 1, 1, self.BASE, self.END) is None

    def test_store_spanning_in_from_below_clamps_to_word_zero(self):
        assert dirty_word_span(self.BASE - 4, 8, self.BASE, self.END) == (0, 0)
        assert dirty_word_span(self.BASE - 1, 4, self.BASE, self.END) == (0, 0)


class TestSuperblockFormation:
    def test_terminators_tails_and_illegal_fusion(self):
        program = _program(
            I("addi", rd=1, rs1=0, imm=1),            # 0 ┐
            I("addi", rd=2, rs1=0, imm=2),            # 1 │ block: branch tail
            I("beq", rs1=0, rs2=0, imm=8),            # 2 ┘
            I("addi", rd=3, rs1=0, imm=3),            # 3 ┐ block: CSR tail
            I("csrrs", rd=4, rs1=0, csr=csrdefs.MINSTRET),  # 4 ┘
            I("addi", rd=5, rs1=0, imm=5),            # 5 ┐
            I.illegal(0xFFFF_FFFF),                   # 6 │ block: illegal fused
            I("addi", rd=6, rs1=0, imm=6),            # 7 ┘
            I("ecall"),                               # 8 never fused (halts)
        )
        blocks = superblocks_for(program)
        head = blocks.at(0)
        assert (head.start, head.length) == (0, 3)
        assert head.tail_redirect and not head.csr_tail
        assert head.word_set == frozenset({0, 1, 2})
        csr_block = blocks.at(3)
        assert (csr_block.start, csr_block.length) == (3, 2)
        assert csr_block.csr_tail and not csr_block.tail_redirect
        tail = blocks.at(5)
        assert (tail.start, tail.length) == (5, 3)
        assert not tail.tail_redirect and not tail.csr_tail
        # The illegal word fused with a working stand-in handler.
        assert all(handler is not None for _, _, handler in tail.entries)
        assert blocks.at(8) is None  # a lone ecall leads no block

    def test_system_entries(self):
        program = _program(
            I("addi", rd=1, rs1=0, imm=1),            # 0 ┐
            I("ebreak"),                              # 1 │ interior: traps,
            I("wfi"),                                 # 2 │ falls through / nop
            I("mret"),                                # 3 ┘ redirect tail
            I("addi", rd=2, rs1=0, imm=2),            # 4 ] block before ecall
            I("ecall"),                               # 5 hard terminator
        )
        blocks = superblocks_for(program)
        head = blocks.at(0)
        assert (head.start, head.length) == (0, 4)
        assert head.tail_redirect and not head.csr_tail
        assert [e[1].mnemonic for e in head.entries][1:3] == ["ebreak", "wfi"]
        assert blocks.at(3).length == 1 and blocks.at(3).tail_redirect
        last = blocks.at(4)
        assert (last.start, last.length) == (4, 1)
        assert not last.tail_redirect and not last.csr_tail
        assert blocks.at(5) is None  # ecall leads no block
        assert falls_through(I("ebreak")) and falls_through(I("wfi"))
        assert falls_through(I.illegal(0))
        assert not falls_through(I("mret")) and not falls_through(I("ecall"))

    def test_lru_bound_and_stats(self, shrunk_cache):
        cache = shrunk_cache("superblock")
        before = cache.stats()
        programs = _distinct_programs(3)
        for program in programs:
            superblocks_for(program)
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["misses"] - before["misses"] == 3
        assert stats["evictions"] - before["evictions"] == 1
        blocks = superblocks_for(programs[-1])
        assert cache.hits - before["hits"] == 1
        assert superblocks_for(programs[-1]) is blocks
        cache.configure(1)
        assert len(cache) == 1
        with pytest.raises(ValueError):
            cache.configure(0)
        with pytest.raises(ValueError):
            configure_process_caches(0)


class TestSuperblockSemantics:
    """Bit-identity of the fused loops against the per-step path."""

    def test_partial_block_step_limit_truncation(self):
        # A 10-entry straight-line block truncated mid-block: the run loop
        # must fall back to per-entry dispatch and stop on the exact step.
        program = _program(*[I("addi", rd=1, rs1=1, imm=1) for _ in range(10)],
                           I("ecall"))
        for limit in (5, 10):
            on, off = _run_both_ways(program, max_steps=limit)
            assert on == off
            assert on[1] is HaltReason.STEP_LIMIT
            assert len(on[0]) == limit

    def test_csr_tail_reads_exact_retirement_counters(self):
        # MINSTRET/MCYCLE updates are batched to the block exit; a CSR
        # closing the block must still read architecturally exact values.
        program = _program(
            I("addi", rd=1, rs1=0, imm=1),
            I("addi", rd=2, rs1=0, imm=2),
            I("csrrs", rd=5, rs1=0, csr=csrdefs.MINSTRET),
            I("addi", rd=3, rs1=0, imm=3),
            I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),
            I("ecall"),
        )
        on, off = _run_both_ways(program)
        assert on == off
        result = GoldenModel().run(program)
        assert result.final_registers[5] == 2  # two retirements before it
        assert result.final_registers[6] == 4

    def test_fused_illegal_word_traps_identically(self):
        program = _program(
            I("addi", rd=1, rs1=0, imm=5),
            I.illegal(0xFFFF_FFFF),
            I("addi", rd=2, rs1=0, imm=7),
            I("ecall"),
        )
        on, off = _run_both_ways(program)
        assert on == off
        result = GoldenModel().run(program)
        trap_record = result.records[1]
        assert trap_record.trap is not None
        assert trap_record.trap.name == "ILLEGAL_INSTRUCTION"
        assert trap_record.trap_tval == 0xFFFF_FFFF
        assert result.final_registers[2] == 7  # execution fell through

    def test_store_into_a_later_block_invalidates_it(self):
        # The store commits in the block before the branch; the victim
        # word lives in the *next* block.  Crossing the boundary, the
        # dirty-word set must force a re-fetch of the new encoding.
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        program = _program(
            I("lui", rd=1, imm=0x40000),       # 0: x1 = code base
            I("lui", rd=3, imm=upper),         # 1
            I("addi", rd=3, rs1=3, imm=lower), # 2: x3 = new_word
            I("sw", rs1=1, rs2=3, imm=24),     # 3: overwrite slot 6
            I("beq", rs1=0, rs2=0, imm=4),     # 4: block boundary
            I("addi", rd=6, rs1=0, imm=7),     # 5
            I("addi", rd=5, rs1=0, imm=1),     # 6: the victim
            I("ecall"),                        # 7
        )
        on, off = _run_both_ways(program)
        assert on == off
        result = GoldenModel().run(program)
        assert result.final_registers[5] == 42

    def test_mret_loop_agrees_with_unfused(self):
        # ebreak sets MEPC mid-block and the mret tail loops back to it
        # until the branch exits; MEPC must be exact at every mret.
        program = _program(
            I("addi", rd=7, rs1=0, imm=3),
            I("ebreak"),
            I("bge", rs1=5, rs2=7, imm=16),
            I("addi", rd=5, rs1=5, imm=1),
            I("wfi"),
            I("mret"),
            I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),
            I("ecall"),
        )
        on, off = _run_both_ways(program)
        assert on == off
        result = GoldenModel().run(program)
        assert result.final_registers[5] == 3
        assert result.halt_reason is HaltReason.ECALL
        for name in ("rocket", "cva6"):  # default bug sets, both models
            for coverage_model in ("base", "csr"):
                dut = make_dut(name, coverage_model=coverage_model)
                runs = _dut_runs_both_ways(dut, program)
                assert runs[True] == runs[False]

    def test_v7_ebreak_in_block_then_minstret_agrees_with_unfused(self):
        program = _program(
            I("addi", rd=5, rs1=0, imm=1),
            I("ebreak"),
            I("addi", rd=5, rs1=5, imm=1),
            I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),
            I("ecall"),
        )
        on, off = _run_both_ways(program)
        assert on == off
        golden_read = GoldenModel().run(program).final_registers[6]
        for coverage_model in ("base", "csr"):
            dut = make_dut("rocket", coverage_model=coverage_model)  # V7
            runs = _dut_runs_both_ways(dut, program)
            assert _digest(runs[True].execution) == _digest(runs[False].execution)
            assert runs[True] == runs[False]
            assert runs[True].bug_effect_steps == {"V7": 1}
            # The ebreak retired without counting: one fewer than golden.
            assert runs[True].execution.final_registers[6] == golden_read - 1

    def test_self_modifying_and_misaligned_mret_agree_with_unfused(self):
        # The fallback-path programs from TestFallbackPaths, re-run both
        # ways: aborting a block mid-flight and leaving the compiled
        # trace entirely must not depend on the superblock flag.
        new_word = encode_instruction(I("addi", rd=5, rs1=0, imm=42))
        upper = (new_word + 0x800) >> 12
        lower = new_word - (upper << 12)
        self_modifying = _program(
            I("lui", rd=1, imm=0x40000),
            I("lui", rd=3, imm=upper),
            I("addi", rd=3, rs1=3, imm=lower),
            I("sw", rs1=1, rs2=3, imm=20),
            I("addi", rd=6, rs1=0, imm=7),
            I("addi", rd=5, rs1=0, imm=1),
            I("ecall"),
        )
        misaligned_mret = _program(
            I("lui", rd=1, imm=0x40000),
            I("addi", rd=1, rs1=1, imm=6),
            I("csrrw", rd=0, rs1=1, csr=csrdefs.MEPC),
            I("mret"),
            I("addi", rd=2, rs1=0, imm=1),
            I("ecall"),
        )
        for program in (self_modifying, misaligned_mret):
            on, off = _run_both_ways(program)
            assert on == off

    def test_superblocks_off_disables_block_dispatch(self, superblocks_off):
        assert not superblocks_enabled()
        program = _program(I("addi", rd=1, rs1=0, imm=3), I("ecall"))
        result = GoldenModel().run(program)
        assert result.final_registers[1] == 3
        assert result.halt_reason is HaltReason.ECALL


class TestCorpusSanity:
    def test_random_programs_unaffected_by_repeat_compilation(self):
        golden = GoldenModel()
        for program in SeedGenerator(rng=5).generate_many(5):
            first = golden.run(program)
            second = golden.run(program)
            assert ([r.arch_key() for r in first.records]
                    == [r.arch_key() for r in second.records])
            assert first.final_csrs == second.final_csrs
