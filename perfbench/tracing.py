"""Span tracing from outside the program, for the benchmark's traced run.

:func:`install` wraps the public calls into each layer of the pipeline --
seed generation, mutation, scheduling, golden and DUT runs, differential
check, coverage, corpus, trial setup, batching, journal, queue, dispatcher
and supervisor -- by replacing them on their classes and modules.  Every
wrapped call records one span ``(name, start, end, parent, trial)`` in
memory; nothing is written until :meth:`Tracer.summary` and
:meth:`Tracer.write_spans` run at the end of a round.

A span's *self time* is its duration minus the time of its direct child
spans.  Calls run on one thread, so children never overlap and their
durations add up to the part of the parent they cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

#: span name -> layer.  Self time and call counts are reported per layer.
LAYERS = {
    "DutModel.run": "rtl.dut",
    "DutRunCache.get_or_run": "rtl.dut",
    "GoldenModel.run": "sim.golden",
    "GoldenTraceCache.get_or_run": "sim.golden",
    "SeedGenerator.generate": "isa.generate",
    "TrapScenarioGenerator.generate": "isa.generate",
    "MixedSeedGenerator.generate": "isa.generate",
    "MutationEngine.mutate": "fuzzing.mutation",
    "MutationEngine.mutate_once": "fuzzing.mutation",
    "MABScheduler.select": "core.scheduler",
    "MABScheduler.update": "core.scheduler",
    "DifferentialTester.check": "fuzzing.differential",
    "CoverageDatabase.record": "coverage.record",
    "Fuzzer.fuzz_one": "fuzzing.session",
    "Fuzzer.run": "fuzzing.session",
    "CorpusManager.offer": "fuzzing.corpus",
    "CorpusManager.novel_points": "fuzzing.corpus",
    "CorpusManager.merge_payload": "fuzzing.corpus.payload",
    "CorpusManager.to_payload": "fuzzing.corpus.payload",
    "CorpusManager.from_payload": "fuzzing.corpus.payload",
    "CorpusManager.delta_payload": "fuzzing.corpus.payload",
    "make_processor": "harness.trial_setup",
    "make_fuzzer": "harness.trial_setup",
    "run_campaign": "harness.campaign",
    "execute_batch": "exec.batching",
    "CheckpointJournal": "exec.checkpoint",
    "SpoolQueue": "exec.queue",
    "DistributedBackend.wait": "exec.distributed.wait",
    "WorkerSupervisor": "exec.transport",
    "run_worker": "exec.worker",
}

#: layers whose work blocks every test of a serial campaign.
BLOCKING_LAYERS = ("rtl.dut", "sim.golden", "fuzzing.mutation",
                   "core.scheduler", "isa.generate", "fuzzing.differential",
                   "coverage.record")

#: busy layers of the corpus and execution stack (idle waiting excluded).
EXEC_CORPUS_LAYERS = ("fuzzing.corpus", "fuzzing.corpus.payload",
                      "exec.batching", "exec.checkpoint", "exec.queue",
                      "exec.transport")

_QUEUE_METHODS = (
    "ensure", "enqueue", "collect", "requeue_stale", "discard_task",
    "discard_result", "sweep_stale_results", "request_stop", "clear_stop",
    "quarantine", "deadletter_ids", "read_deadletter", "publish_coverage_delta",
    "take_coverage_deltas", "publish_coverage_global", "read_coverage_global",
    "publish_coverage_snapshot", "coverage_snapshots", "claim", "complete",
    "stop_requested", "result_ids", "task_ids", "claimed_ids")


def layer_of(name: str) -> Optional[str]:
    """The layer a span name belongs to (whole classes match by class name)."""
    return LAYERS.get(name) or LAYERS.get(name.split(".", 1)[0])


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: one ``[name_id, start, end, parent_index, trial]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.trial: Optional[str] = None

    # ------------------------------------------------------------ recording
    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def span(self, name: str, function):
        """``function`` wrapped so every call records a span ``name``."""
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.trial]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    def generator_span(self, name: str, function):
        """``function`` (a generator function) wrapped span-per-resume.

        The time between resuming the generator and its next ``yield`` is
        one span; the consumer's work between yields is outside it.
        """
        step = self.span(name, next)

        def traced(*args, **kwargs):
            inner = function(*args, **kwargs)
            try:
                while True:
                    try:
                        item = step(inner)
                    except StopIteration:
                        return
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = function
        return traced

    def count(self, name: str, function, when=None):
        """``function`` wrapped to count calls (optionally only ``when(self)``)."""
        counts = self.counts

        def counted(instance, *args, **kwargs):
            if when is None or when(instance):
                counts[name] += 1
            return function(instance, *args, **kwargs)

        counted.__wrapped__ = function
        return counted

    # ------------------------------------------------------------- results
    def summary(self) -> Dict[str, object]:
        """Per-span-name totals: calls, inclusive seconds, self seconds.

        Also returns the ``Fuzzer.fuzz_one`` durations (for latency
        percentiles) and the counters.  JSON-safe, so worker processes
        can hand it to the dispatcher side.
        """
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        test_ms: List[float] = []
        fuzz_one = self._name_ids.get("Fuzzer.fuzz_one")
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(self.names[name_id],
                                      {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if name_id == fuzz_one:
                test_ms.append((end - start) * 1000.0)
        return {"spans": totals, "counts": dict(self.counts), "test_ms": test_ms}

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name_id, start, end, parent, trial) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": self.names[name_id],
                     "start": round(start - origin, 7),
                     "end": round(end - origin, 7),
                     "parent": parent, "trial": trial}) + "\n")


def merge_summaries(summaries):
    """Add up :meth:`Tracer.summary` results of several processes or rounds."""
    spans, counts, test_ms = {}, {}, []
    for summary in summaries:
        for name, entry in summary["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
        test_ms.extend(summary["test_ms"])
    return {"spans": spans, "counts": counts, "test_ms": test_ms}


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer with ``tracer``'s spans."""
    from repro.core.scheduler import MABScheduler
    from repro.coverage.database import CoverageDatabase
    from repro.exec import backends, batching, distributed, transport
    from repro.exec.cache import DutRunCache
    from repro.exec.checkpoint import CheckpointJournal
    from repro.exec.queue import ClaimedTask, SpoolQueue
    from repro.fuzzing.base import Fuzzer
    from repro.fuzzing.corpus import CorpusManager
    from repro.fuzzing.differential import DifferentialTester
    from repro.fuzzing.mutation import MutationEngine
    from repro.harness import campaign
    from repro.isa.generator import SeedGenerator
    from repro.isa.scenarios import MixedSeedGenerator, TrapScenarioGenerator
    from repro.rtl.harness import DutExecutor, DutModel
    from repro.sim.executor import Executor
    from repro.sim.golden import GoldenModel, GoldenTraceCache

    def method(owner, attr, name=None):
        setattr(owner, attr, tracer.span(name or f"{owner.__name__}.{attr}",
                                         getattr(owner, attr)))

    for owner, attrs in (
            (DutModel, ("run",)),
            (DutRunCache, ("get_or_run",)),
            (GoldenModel, ("run",)),
            (GoldenTraceCache, ("get_or_run",)),
            (SeedGenerator, ("generate",)),
            (TrapScenarioGenerator, ("generate",)),
            (MixedSeedGenerator, ("generate",)),
            (MutationEngine, ("mutate", "mutate_once")),
            (MABScheduler, ("select", "update")),
            (DifferentialTester, ("check",)),
            (CoverageDatabase, ("record",)),
            (Fuzzer, ("fuzz_one", "run")),
            (CorpusManager, ("offer", "novel_points", "merge_payload",
                             "to_payload", "delta_payload")),
            (CheckpointJournal, ("record_grid", "record_trial", "record_corpus")),
            (SpoolQueue, _QUEUE_METHODS),
            (transport.WorkerSupervisor, ("start", "poll", "drain"))):
        for attr in attrs:
            method(owner, attr)
    method(ClaimedTask, "heartbeat", "SpoolQueue.heartbeat")
    # from_payload is a classmethod: wrap the underlying function.
    from_payload = CorpusManager.__dict__["from_payload"].__func__
    CorpusManager.from_payload = classmethod(
        tracer.span("CorpusManager.from_payload", from_payload))

    # Module-level names are patched where they are looked up.
    for attr in ("make_processor", "make_fuzzer"):
        setattr(campaign, attr, tracer.span(attr, getattr(campaign, attr)))
    run_campaign = batching.run_campaign

    def traced_run_campaign(spec, trial_index=0, **kwargs):
        tracer.trial = f"{spec.processor}/{spec.fuzzer}#{trial_index}"
        try:
            return run_campaign(spec, trial_index, **kwargs)
        finally:
            tracer.trial = None

    batching.run_campaign = tracer.span("run_campaign", traced_run_campaign)
    execute_batch = tracer.span("execute_batch", batching.execute_batch)
    backends.execute_batch = execute_batch
    distributed.execute_batch = execute_batch
    distributed.DistributedBackend._run_batches = tracer.generator_span(
        "DistributedBackend.wait", distributed.DistributedBackend._run_batches)

    # Block dispatch counts on the DUT side: fused vs per-entry generic.
    DutExecutor.run_block = tracer.count("dut.block_dispatches",
                                         DutExecutor.run_block)
    Executor.run_block_generic = tracer.count(
        "dut.generic_blocks", Executor.run_block_generic,
        when=lambda executor: isinstance(executor, DutExecutor))
