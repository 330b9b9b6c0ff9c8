"""Directed tests for the injected vulnerabilities V1-V7.

Each test builds a minimal program that deterministically exercises one
bug's trigger condition and checks that (a) the DUT diverges from the golden
model, and (b) the divergence is attributed to the right bug id.  A matching
negative test checks the bug does *not* fire without its trigger.
"""

import pytest

from repro.fuzzing.differential import DifferentialTester
from repro.isa import csr as csrdefs
from repro.isa.exceptions import TrapCause
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl.bugs import (
    BUGS_BY_ID,
    CVA6_BUG_IDS,
    HOOK_METHODS,
    ROCKET_BUG_IDS,
    InjectedBug,
    make_bug,
    make_bugs,
)
from repro.rtl.cva6 import CVA6Model
from repro.rtl.rocket import RocketModel
from repro.sim.golden import GoldenModel

DATA_UPPER = 0x40004  # lui immediate for the data region base


def _program(*instructions):
    return TestProgram(instructions=tuple(instructions))


#: opcode OP, funct3 0, funct7 0x04 (reserved), rd=5, rs1=6, rs2=7.
V2_BROKEN_WORD = (0x04 << 25) | (7 << 20) | (6 << 15) | (0 << 12) | (5 << 7) | 0x33

#: one directed program per bug that deterministically fires it.
TRIGGER_PROGRAMS = {
    "V1": _program(
        Instruction("lui", rd=10, imm=DATA_UPPER),
        Instruction("addi", rd=5, rs1=0, imm=1),
        Instruction("sd", rs1=10, rs2=5, imm=0),   # store: buffer draining
        Instruction("fence.i"),                    # broken decode path
        Instruction("ecall"),
    ),
    "V2": _program(
        Instruction("addi", rd=6, rs1=0, imm=11),
        Instruction("addi", rd=7, rs1=0, imm=31),
        Instruction.illegal(V2_BROKEN_WORD),
        Instruction("ecall"),
    ),
    "V3": _program(
        Instruction("ld", rd=5, rs1=0, imm=0),    # access fault at address 0
        Instruction.illegal(0x0000007F),           # illegal right after
        Instruction("ecall"),
    ),
    "V4": _program(
        Instruction("lui", rd=10, imm=DATA_UPPER),
        Instruction("addi", rd=5, rs1=0, imm=77),
        Instruction("sd", rs1=10, rs2=5, imm=0),          # dirty line, non-zero
        Instruction("amoadd.d", rd=6, rs1=10, rs2=0),     # atomic reads stale 0
        Instruction("ecall"),
    ),
    "V5": _program(
        Instruction("addi", rd=5, rs1=0, imm=-1),   # x5 = 0xFFFF...FFFF
        Instruction("andi", rd=5, rs1=5, imm=-8),   # keep it 8-byte aligned
        Instruction("ld", rd=6, rs1=5, imm=0),      # fault silently dropped
        Instruction("ecall"),
    ),
    "V6": _program(
        Instruction("csrrs", rd=5, rs1=0, csr=0x7B0),   # dcsr
        Instruction("ecall"),
    ),
    "V7": _program(
        Instruction("ebreak"),
        Instruction("csrrs", rd=5, rs1=0, csr=csrdefs.MINSTRET),
        Instruction("ecall"),
    ),
}


def _detect(dut, program):
    golden = GoldenModel().run(program)
    dut_run = dut.run(program)
    return DifferentialTester().check(golden, dut_run), dut_run


class TestBugRegistry:
    def test_all_seven_bugs_known(self):
        assert set(BUGS_BY_ID) == {"V1", "V2", "V3", "V4", "V5", "V6", "V7"}

    def test_processor_attribution(self):
        assert set(CVA6_BUG_IDS) == {"V1", "V2", "V3", "V4", "V5", "V6"}
        assert ROCKET_BUG_IDS == ("V7",)
        for bug_id in CVA6_BUG_IDS:
            assert BUGS_BY_ID[bug_id]().processor == "cva6"
        assert BUGS_BY_ID["V7"]().processor == "rocket"

    def test_cwe_numbers_match_table1(self):
        expected = {"V1": 440, "V2": 1242, "V3": 1202, "V4": 1202,
                    "V5": 1252, "V6": 1281, "V7": 1201}
        for bug_id, cwe in expected.items():
            assert BUGS_BY_ID[bug_id]().cwe == cwe

    def test_make_bug(self):
        assert make_bug("v3").bug_id == "V3"
        bug = make_bug("V5")
        assert make_bug(bug) is bug
        with pytest.raises(KeyError):
            make_bug("V99")
        assert [b.bug_id for b in make_bugs(["V1", "V2"])] == ["V1", "V2"]

    def test_default_bug_sets_on_models(self):
        assert {b.bug_id for b in CVA6Model().bugs} == set(CVA6_BUG_IDS)
        assert {b.bug_id for b in RocketModel().bugs} == {"V7"}

    def test_declared_hooks_match_overridden_methods(self):
        expected = {"V1": {"decode"}, "V2": {"decode"}, "V3": {"trap"},
                    "V4": {"mem_load"}, "V5": {"trap"},
                    "V6": {"csr_read", "csr_write"}, "V7": {"retire"}}
        for bug_id, bug_cls in BUGS_BY_ID.items():
            assert bug_cls.hooks == expected[bug_id]
            overridden = {hook for hook, method in HOOK_METHODS.items()
                          if getattr(bug_cls, method)
                          is not getattr(InjectedBug, method)}
            assert overridden == bug_cls.hooks

    def test_undeclared_or_unknown_hook_is_rejected(self):
        with pytest.raises(TypeError, match="undeclared hooks"):
            class Sneaky(InjectedBug):  # noqa: F841 - defining it is the test
                def on_trap(self, executor, trap, instr, pc):
                    return None
        with pytest.raises(TypeError, match="unknown hooks"):
            class Typo(InjectedBug):  # noqa: F841
                hooks = frozenset({"fetch"})

    def test_entry_predicates_select_the_trigger_entries(self):
        from repro.isa.decoder import decode_word

        fence_i = Instruction("fence.i")
        ebreak = Instruction("ebreak")
        assert BUGS_BY_ID["V1"].may_fire_on(0, fence_i)
        assert not BUGS_BY_ID["V1"].may_fire_on(0, ebreak)
        assert BUGS_BY_ID["V2"].may_fire_on(
            V2_BROKEN_WORD, decode_word(V2_BROKEN_WORD))
        assert not BUGS_BY_ID["V2"].may_fire_on(0, decode_word(0))
        assert BUGS_BY_ID["V7"].may_fire_on(0, ebreak)
        assert not BUGS_BY_ID["V7"].may_fire_on(0, fence_i)


class TestV1FenceIDecode:
    def test_detected(self):
        report, dut_run = _detect(CVA6Model(bugs=["V1"]), TRIGGER_PROGRAMS["V1"])
        assert report.found_mismatch
        assert report.detected_bugs == {"V1"}
        assert dut_run.bug_effect_steps["V1"] == 3

    def test_not_triggered_without_recent_store(self):
        program = _program(
            Instruction("lui", rd=10, imm=DATA_UPPER),
            Instruction("fence.i"),
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V1"]), program)
        assert not report.found_mismatch


class TestV2IllegalExecuted:
    def test_broken_word_is_actually_illegal(self):
        from repro.isa.decoder import decode_word

        assert decode_word(V2_BROKEN_WORD).is_illegal

    def test_detected(self):
        report, dut_run = _detect(CVA6Model(bugs=["V2"]), TRIGGER_PROGRAMS["V2"])
        assert report.found_mismatch
        assert report.detected_bugs == {"V2"}
        # The DUT executed the illegal word as ADD: x5 = 11 + 31.
        assert dut_run.execution.records[2].rd_value == 42

    def test_legal_funct7_not_affected(self):
        program = _program(Instruction("add", rd=5, rs1=6, rs2=7),
                           Instruction("ecall"))
        report, _ = _detect(CVA6Model(bugs=["V2"]), program)
        assert not report.found_mismatch


class TestV3ExceptionPropagation:
    def test_detected(self):
        report, dut_run = _detect(CVA6Model(bugs=["V3"]), TRIGGER_PROGRAMS["V3"])
        assert report.found_mismatch
        assert report.detected_bugs == {"V3"}
        # The DUT reports the stale (load-access-fault) cause for the illegal.
        assert dut_run.execution.records[1].trap is TrapCause.LOAD_ACCESS_FAULT

    def test_not_triggered_when_far_apart(self):
        filler = [Instruction("addi", rd=6, rs1=6, imm=1)] * 4
        program = _program(
            Instruction("ld", rd=5, rs1=0, imm=0),
            *filler,
            Instruction.illegal(0x0000007F),
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V3"]), program)
        assert not report.found_mismatch


class TestV4CacheCoherency:
    def test_detected(self):
        report, dut_run = _detect(CVA6Model(bugs=["V4"]), TRIGGER_PROGRAMS["V4"])
        assert report.found_mismatch
        assert report.detected_bugs == {"V4"}
        assert dut_run.execution.records[3].rd_value == 0

    def test_not_triggered_without_dirty_line(self):
        program = _program(
            Instruction("lui", rd=10, imm=DATA_UPPER),
            Instruction("amoadd.d", rd=6, rs1=10, rs2=0),
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V4"]), program)
        assert not report.found_mismatch


class TestV5MissingException:
    def test_detected_for_unmapped_high_address(self):
        report, dut_run = _detect(CVA6Model(bugs=["V5"]), TRIGGER_PROGRAMS["V5"])
        assert report.found_mismatch
        assert report.detected_bugs == {"V5"}
        assert dut_run.execution.records[2].trap is None

    def test_low_invalid_address_still_faults(self):
        program = _program(
            Instruction("ld", rd=6, rs1=0, imm=16),     # address 16: still reported
            Instruction("ecall"),
        )
        report, dut_run = _detect(CVA6Model(bugs=["V5"]), program)
        assert not report.found_mismatch
        assert dut_run.execution.records[0].trap is TrapCause.LOAD_ACCESS_FAULT


class TestV6UnimplementedCsr:
    def test_detected_on_read(self):
        report, dut_run = _detect(CVA6Model(bugs=["V6"]), TRIGGER_PROGRAMS["V6"])
        assert report.found_mismatch
        assert report.detected_bugs == {"V6"}
        record = dut_run.execution.records[0]
        assert record.trap is None
        assert record.rd_value not in (None, 0)

    def test_other_unimplemented_csrs_still_trap(self):
        program = _program(
            Instruction("csrrs", rd=5, rs1=0, csr=0x180),   # satp: not part of V6
            Instruction("ecall"),
        )
        report, _ = _detect(CVA6Model(bugs=["V6"]), program)
        assert not report.found_mismatch


class TestV7EbreakInstret:
    def test_detected_when_instret_read_after_ebreak(self):
        program = TRIGGER_PROGRAMS["V7"]
        report, dut_run = _detect(RocketModel(bugs=["V7"]), program)
        assert report.found_mismatch
        assert report.detected_bugs == {"V7"}
        golden = GoldenModel().run(program)
        golden_read = golden.records[1].rd_value
        dut_read = dut_run.execution.records[1].rd_value
        assert dut_read == golden_read - 1

    def test_silent_without_instret_read(self):
        program = _program(
            Instruction("ebreak"),
            Instruction("addi", rd=5, rs1=0, imm=3),
            Instruction("ecall"),
        )
        report, dut_run = _detect(RocketModel(bugs=["V7"]), program)
        # The defect fired (count skipped) but is architecturally invisible.
        assert "V7" in dut_run.fired_bugs
        assert not report.found_mismatch


class TestBugsOnlyFireOnTheirProcessorDefaults:
    def test_boom_default_has_no_bugs(self):
        from repro.rtl.boom import BoomModel

        assert BoomModel().bugs == []
