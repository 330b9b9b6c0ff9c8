"""Per-process DUT-run and shared golden-trace caches.

The DUT models are deterministic: a :class:`~repro.rtl.harness.DutRunResult`
depends only on the program words, the load address, the step limit and the
DUT's full configuration (microarchitecture parameters + injected bug set).
Campaigns replay programs constantly -- MABFuzz arms re-run their seeds,
mutants duplicate each other -- so caching DUT runs removes the second half
of the per-iteration simulation cost the same way PR 1's
:class:`~repro.sim.golden.GoldenTraceCache` removed the golden half.

Both caches live in the process-cache registry of :mod:`repro.utils.lru`
(as ``dut_cache`` and ``shared_golden``, next to the compiled-trace and
superblock caches), which supplies the shared ``cache_entries`` bound
(:func:`configure_process_caches`) and the counters
(:func:`process_cache_stats`) re-exported here.  The caches are
*process-local by design*: worker processes each build their own, so no
locking or shared memory is needed and a cached entry can never leak
between incompatible DUT configurations running in other workers.  Cached
:class:`DutRunResult` objects are frozen and must be treated as read-only,
which every consumer (differential tester, coverage database) already does.

Cache hits never change campaign results -- only wall-clock -- so the
hit/miss counters are deliberately *not* copied into
:class:`~repro.fuzzing.results.FuzzCampaignResult` metadata: a worker's
counters depend on which trials it happened to execute before, and result
payloads must stay bit-identical between serial and parallel backends.
"""

from __future__ import annotations

from typing import Tuple

from repro.isa.program import TestProgram
from repro.rtl.harness import DutModel
from repro.sim.golden import GoldenTraceCache, KeyedRunCache
from repro.utils.lru import (
    configure_process_caches,  # noqa: F401  (re-exported)
    process_cache,
    process_cache_stats,  # noqa: F401  (re-exported)
)


class DutRunCache(KeyedRunCache):
    """Program-and-configuration-keyed cache of instrumented DUT runs.

    Shares its mechanics (counters, eviction, stats) with
    :class:`~repro.sim.golden.GoldenTraceCache` via
    :class:`~repro.sim.golden.KeyedRunCache`; only the key differs.
    """

    @staticmethod
    def key(dut: DutModel, program: TestProgram, step_limit: int) -> Tuple:
        """Cache key: program fingerprint + step limit + full DUT identity.

        The bug set is part of the key (sorted ids), so one worker can
        interleave trials against differently-bugged instances of the same
        core without cross-talk.  The coverage model is part of the DUT
        identity too: a ``"csr"`` run's coverage set is a strict superset
        of the ``"base"`` run's, so the two must never serve each other.
        """
        return (program.fingerprint(), step_limit, dut.name, dut.config,
                tuple(sorted(bug.bug_id for bug in dut.bugs)),
                dut.executor_config, dut.layout, dut.coverage_model)


def process_dut_cache() -> DutRunCache:
    """The calling process's shared :class:`DutRunCache`.

    Trial workers route every DUT run through this instance so that trials
    of the same spec executed back-to-back in one worker reuse each other's
    seed-program runs.  Worker recycling (``max_tasks_per_child``) resets
    it together with the rest of the interpreter state.
    """
    return process_cache("dut_cache", DutRunCache)


def process_golden_cache() -> GoldenTraceCache:
    """The calling process's shared golden-trace cache.

    Installed as the *fallback* of every trial's session-level
    :class:`~repro.sim.golden.GoldenTraceCache` by the batch executor, so
    one golden run of a repeated program serves every trial a worker
    executes -- without touching the per-trial session counters that go
    into result metadata (see :class:`~repro.sim.golden.KeyedRunCache`).
    """
    return process_cache("shared_golden", GoldenTraceCache)


# Register both at import, so process_cache_stats() reports all four
# caches' counters before a batch first touches them.
process_dut_cache()
process_golden_cache()
