"""Bug hooks and CSR tracking inside the fused superblock loop.

Bug-injected and ``coverage_model="csr"`` DUTs run on the fused
superblock path like clean ones.  These tests pin that this changes
nothing observable: for the default bug sets of CVA6 (V1-V6) and Rocket
(V7), under both coverage models, a run with superblocks on returns the
same :class:`~repro.rtl.harness.DutRunResult` -- commit trace, coverage,
fired bugs and first-effect steps -- as the per-step path.  They also pin
that the fused loop never delegates to ``run_block_generic``, that every
bug's static entry predicate is sound (a decode or retirement hook only
ever fires on an entry its predicate flags), and that a decode
substitution of any instruction class matches the per-step path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import csr as csrdefs
from repro.isa.compiled import set_superblocks_enabled, superblocks_enabled
from repro.isa.decoder import decode_word
from repro.isa.instruction import Instruction
from repro.isa.program import TestProgram
from repro.rtl.bugs import BUGS_BY_ID, ENTRY_HOOKS, InjectedBug
from repro.rtl.registry import make_dut
from repro.sim.executor import Executor
from tests.coverage.test_bitset_parity import _trap_corpus, _user_corpus
from tests.rtl.test_bugs import TRIGGER_PROGRAMS, V2_BROKEN_WORD

I = Instruction
DUT_NAMES = ("cva6", "rocket")
COVERAGE_MODELS = ("base", "csr")


@pytest.fixture(scope="module")
def corpus():
    return _user_corpus() + _trap_corpus() + list(TRIGGER_PROGRAMS.values())


def _run(dut, program, fused):
    was = superblocks_enabled()
    set_superblocks_enabled(fused)
    try:
        return dut.run(program)
    finally:
        set_superblocks_enabled(was)


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("name", DUT_NAMES)
def test_default_bugs_fused_equals_unfused(corpus, name, coverage_model):
    dut = make_dut(name, coverage_model=coverage_model)  # default bug set
    fired = set()
    for program in corpus:
        fused = _run(dut, program, True)
        unfused = _run(dut, program, False)
        assert fused == unfused, f"{name}/{coverage_model}: {program.program_id}"
        fired |= fused.fired_bugs
    assert fired == {bug.bug_id for bug in dut.bugs}  # every bug exercised


@pytest.mark.parametrize("coverage_model", COVERAGE_MODELS)
@pytest.mark.parametrize("name", DUT_NAMES)
def test_fused_loop_never_runs_the_generic_path(corpus, name, coverage_model,
                                                monkeypatch):
    def forbidden(self, block, records):
        raise AssertionError("DUT block fell back to run_block_generic")

    monkeypatch.setattr(Executor, "run_block_generic", forbidden)
    dut = make_dut(name, coverage_model=coverage_model)
    for program in corpus:
        _run(dut, program, True)


# --------------------------------------------------------- property tests
def _all_bugs_dut():
    return make_dut("cva6", bugs=sorted(BUGS_BY_ID))


#: building blocks of random programs: every entry-hook trigger, the
#: events the other hooks react to, CSR reads of the counters V7 skews,
#: and SYSTEM entries that now fuse.
_PIECES = (
    I("lui", rd=10, imm=0x40004),
    I("addi", rd=5, rs1=5, imm=3),
    I("sd", rs1=10, rs2=5, imm=0),
    I("amoadd.d", rd=6, rs1=10, rs2=5),
    I("ld", rd=7, rs1=0, imm=0),
    I("fence.i"),
    I("fence"),
    I("ebreak"),
    I("wfi"),
    I.illegal(V2_BROKEN_WORD),
    I.illegal(0x0000_007F),
    I("csrrs", rd=8, rs1=0, csr=csrdefs.MINSTRET),
    I("csrrs", rd=9, rs1=0, csr=0x7B0),
    I("csrrw", rd=0, rs1=5, csr=csrdefs.MSCRATCH),
)


@st.composite
def programs(draw):
    body = draw(st.lists(
        st.one_of(st.sampled_from(_PIECES),
                  st.integers(0, 0xFFFF_FFFF).map(decode_word)),
        min_size=1, max_size=24))
    return TestProgram(instructions=tuple(body) + (I("ecall"),))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
def test_entry_predicates_are_sound(program):
    """Every decode/retirement effect lies on an entry its predicate flags."""
    dut = _all_bugs_dut()
    result = _run(dut, program, True)
    assert result == _run(dut, program, False)
    records = result.execution.records
    effects = dut._last_executor.bug_effects
    for bug in dut.bugs:
        if not bug.hooks & ENTRY_HOOKS:
            continue
        for step in effects.get(bug.bug_id, ()):
            word = records[step].word
            assert bug.may_fire_on(word, decode_word(word)), (
                f"{bug.bug_id} fired at step {step} on an unflagged entry")


# ------------------------------------------------ decode substitutions
def _program(*instructions):
    return TestProgram(instructions=tuple(instructions))


@pytest.mark.parametrize("replacement", [
    I("addi", rd=7, rs1=7, imm=1),                    # interior
    I("jal", rd=1, imm=8),                            # redirect
    I("csrrs", rd=6, rs1=0, csr=csrdefs.MINSTRET),    # counter read
    I("mret"),                                        # redirect via MEPC
    I("ecall"),                                       # halt
], ids=lambda instr: instr.mnemonic)
def test_decode_substitution_of_any_class_matches_unfused(replacement):
    """A user-defined decode bug may substitute a non-interior instruction.

    The fused loop then ends the block after the replacement, like a
    tail (flushing the batched counters before it), exactly as the
    per-step path redirects, reads exact counters or halts.
    """
    class SubstituteFence(InjectedBug):
        bug_id = "VX"
        hooks = frozenset({"decode"})

        @staticmethod
        def may_fire_on(word, instr):
            return instr.mnemonic == "fence"

        def on_decode(self, executor, instr, word):
            if instr.mnemonic != "fence":
                return None
            self.note_effect(executor)
            return replacement

    program = _program(
        I("addi", rd=5, rs1=0, imm=1),
        I("ebreak"),
        I("fence"),                       # replaced mid-block
        I("addi", rd=5, rs1=5, imm=2),
        I("addi", rd=5, rs1=5, imm=3),
        I("csrrs", rd=8, rs1=0, csr=csrdefs.MINSTRET),
        I("ecall"),
    )
    for coverage_model in COVERAGE_MODELS:
        dut = make_dut("rocket", bugs=[SubstituteFence()],
                       coverage_model=coverage_model)
        fused = _run(dut, program, True)
        assert fused == _run(dut, program, False)
        assert fused.bug_effect_steps == {"VX": 2}
