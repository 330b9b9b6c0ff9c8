"""Corpus mode through the execution subsystem: determinism, the
coverage-at-equal-budget property, cross-worker aggregation and resume.

The corpus relaxes the serial==pool==distributed bit-identity contract
(only for corpus-ON runs -- corpus-off stays fully covered by
``test_backends.py``/``test_distributed.py``), so the invariants enforced
here are the ones ``docs/corpus.md`` promises instead:

* corpus-on **serial** runs are reproducible end to end;
* the engine's corpus state equals a hand-threaded mirror of the same
  trials (no state leaks, no double merges);
* at an equal trial budget, a corpus-on MABFuzz grid reaches strictly
  more union coverage than corpus-off (the point of the subsystem);
* a 2-worker distributed corpus run converges: every worker's parting
  snapshot is identical to the dispatcher's global map;
* the checkpoint journal restores the feedback loop on resume; and
* inside a batch, corpus state is handed from trial to trial as live
  managers: no trial builds or parses a wire payload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api import make_fuzzer, make_processor
from repro.exec import CampaignEngine, DistributedBackend, SerialBackend, SpoolQueue
from repro.exec.batching import TrialBatch, TrialTask, execute_batch
from repro.exec.checkpoint import CheckpointJournal
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.corpus import CorpusEntry, CorpusManager
from repro.harness.campaign import CampaignSpec, trial_seed
from repro.isa.generator import SeedGenerator
from repro.isa.program import program_id_scope

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
CORPUS_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2, corpus=True)
OFF_CONFIG = FuzzerConfig(num_seeds=3, mutants_per_test=2)


def _spec(corpus=True, trials=2, num_tests=8, seed=17, fuzzer="mabfuzz:ucb"):
    return CampaignSpec(processor="rocket", fuzzer=fuzzer, num_tests=num_tests,
                        trials=trials, seed=seed, bugs=[],
                        fuzzer_config=CORPUS_CONFIG if corpus else OFF_CONFIG)


def _canonical(trialsets):
    return [[r.canonical_dict() for r in ts.results] for ts in trialsets]


def _entries(manager):
    """A manager's entries in admission order, as comparable tuples."""
    return [(entry.fingerprint, entry.points, entry.words, entry.generation)
            for entry in sorted(manager.entries.values(), key=lambda e: e.order)]


def _threaded_union(spec):
    """Hand-threaded mirror of a serial corpus grid: run each trial with
    the accumulated state, fold its payload back, return the union of the
    trials' covered point sets (plus the final corpus state).

    It hands state over through the wire form on purpose: the engine
    hands live managers over with ``merge``, and this mirror is the
    payload-based oracle it must agree with."""
    state = CorpusManager()
    union = set()
    for trial in range(spec.trials):
        seed = trial_seed(spec, trial)
        with program_id_scope():
            dut = make_processor(spec.processor, bugs=spec.bugs,
                                 coverage_model=spec.coverage_model)
            fuzzer = make_fuzzer(spec.fuzzer, dut,
                                 fuzzer_config=spec.fuzzer_config,
                                 mab_config=spec.mab_config, rng=seed)
            if fuzzer.corpus is not None:
                fuzzer.corpus.merge_payload(state.to_payload())
                fuzzer.on_corpus_state()
            fuzzer.run(spec.num_tests)
            union |= set(fuzzer.session.coverage_db.covered)
            if fuzzer.corpus is not None:
                state.merge_payload(fuzzer.corpus.to_payload())
    return union, state


class TestSerialDeterminism:
    def test_corpus_on_serial_runs_are_reproducible(self):
        spec = _spec()
        first = CampaignEngine(backend=SerialBackend())
        second = CampaignEngine(backend=SerialBackend())
        results_a = first.run_grid([spec])
        results_b = second.run_grid([spec])
        assert _canonical(results_a) == _canonical(results_b)
        assert (first.corpus_state.coverage_points()
                == second.corpus_state.coverage_points())
        assert set(first.corpus_state.entries) == set(second.corpus_state.entries)

    def test_engine_state_matches_hand_threaded_mirror(self):
        spec = _spec()
        engine = CampaignEngine(backend=SerialBackend())
        engine.run_grid([spec])
        union, state = _threaded_union(spec)
        assert engine.corpus_state.coverage_points() == frozenset(union)
        assert engine.corpus_state.coverage_points() == state.coverage_points()
        assert _entries(engine.corpus_state) == _entries(state)

    def test_corpus_counters_reach_result_metadata(self):
        spec = _spec(trials=1)
        (trialset,) = CampaignEngine(backend=SerialBackend()).run_grid([spec])
        metadata = trialset.results[0].metadata
        assert metadata["corpus_admitted"] > 0
        assert metadata["corpus_global_points"] > 0
        assert "corpus_seeded" in metadata and "corpus_fresh" in metadata

    def test_corpus_off_results_carry_no_corpus_metadata(self):
        spec = _spec(corpus=False, trials=1)
        engine = CampaignEngine(backend=SerialBackend())
        (trialset,) = engine.run_grid([spec])
        assert "corpus_admitted" not in trialset.results[0].metadata
        assert engine.corpus_state is None


class TestCoverageAtEqualBudget:
    def test_corpus_on_beats_corpus_off_union_coverage(self):
        # The acceptance property of the subsystem (docs/corpus.md): at a
        # fixed trial budget, a corpus-on MABFuzz grid reaches strictly
        # more distinct coverage points than the same corpus-off grid.
        # Seeded: the budget (3 trials x 80 tests) is past the break-even
        # point where cross-trial feedback pays for the lost diversity.
        budget = dict(trials=3, num_tests=80, seed=7)
        union_off, _ = _threaded_union(_spec(corpus=False, **budget))
        union_on, state = _threaded_union(_spec(corpus=True, **budget))
        assert len(union_on) > len(union_off)
        # The corpus map is exactly the union of the trials' coverage.
        assert state.coverage_points() == frozenset(union_on)


class TestLiveHandOff:
    """A batch parses only the payload it inherits; trials hand over live state."""

    @staticmethod
    def _count_wire_calls(monkeypatch):
        counts = {"to_payload": 0, "from_dict": 0}
        to_payload = CorpusManager.to_payload
        from_dict = CorpusEntry.__dict__["from_dict"].__func__

        def counted_to_payload(self):
            counts["to_payload"] += 1
            return to_payload(self)

        def counted_from_dict(cls, data):
            counts["from_dict"] += 1
            return from_dict(cls, data)

        monkeypatch.setattr(CorpusManager, "to_payload", counted_to_payload)
        monkeypatch.setattr(CorpusEntry, "from_dict", classmethod(counted_from_dict))
        return counts

    @staticmethod
    def _inherited():
        manager = CorpusManager()
        for index, program in enumerate(SeedGenerator(rng=5).generate_many(3)):
            manager.offer(program, {f"handoff.p{index}"})
        return manager

    @staticmethod
    def _batch(corpus=None):
        spec = _spec(trials=4, num_tests=4)
        tasks = tuple(TrialTask(0, trial, spec) for trial in range(spec.trials))
        return TrialBatch(index=0, tasks=tasks, corpus=corpus)

    def test_four_trial_batch_parses_only_its_inherited_payload(self, monkeypatch):
        inherited = self._inherited().to_payload()
        counts = self._count_wire_calls(monkeypatch)
        payload = execute_batch(self._batch(corpus=inherited))
        assert counts["to_payload"] == 0
        assert counts["from_dict"] == len(inherited["entries"]) == 3
        assert payload["corpus"]["points"], "the trials must discover something"

    def test_live_starting_state_is_never_parsed(self, monkeypatch):
        # The distributed worker's path: its live manager is the batch's
        # starting state and receives the batch's discoveries back.
        live = self._inherited()
        expected = self._inherited()
        counts = self._count_wire_calls(monkeypatch)
        payload = execute_batch(self._batch(), corpus=live)
        assert counts == {"to_payload": 0, "from_dict": 0}
        monkeypatch.undo()
        expected.merge_payload(payload["corpus"])
        assert live.coverage_points() == expected.coverage_points()
        assert _entries(live) == _entries(expected)


class TestResume:
    def test_journal_records_and_full_restore(self, tmp_path):
        journal_path = str(tmp_path / "grid.jsonl")
        spec = _spec()
        engine = CampaignEngine(backend=SerialBackend(),
                                checkpoint_path=journal_path,
                                reuse_results=False)
        original = engine.run_grid([spec])

        journal = CheckpointJournal(journal_path)
        journal.load()
        assert journal.last_corpus_deltas, "corpus deltas must be journaled"

        resumed_engine = CampaignEngine(backend=SerialBackend(),
                                        checkpoint_path=journal_path,
                                        reuse_results=False)
        resumed = resumed_engine.run_grid([spec])
        assert _canonical(resumed) == _canonical(original)
        assert resumed_engine.monitor.restored_trials == spec.trials
        assert (resumed_engine.corpus_state.coverage_points()
                == engine.corpus_state.coverage_points())

    def test_kill_mid_grid_resume_restores_feedback_loop(self, tmp_path):
        # Two specs, batch_size=2 -> one batch per spec on the serial
        # backend (the specs share a cache group, so an unbounded batch
        # would fuse them).  Truncating the journal after batch 0 (its
        # corpus delta + its trial records) simulates a kill between
        # batches; the resumed engine must replay the delta and re-run
        # batch 1 with exactly the state the original run gave it --
        # bit-identical results.
        journal_path = str(tmp_path / "grid.jsonl")
        specs = [_spec(seed=17), _spec(seed=23)]
        engine = CampaignEngine(backend=SerialBackend(batch_size=2),
                                checkpoint_path=journal_path,
                                reuse_results=False)
        original = engine.run_grid(specs)

        second_fp = specs[1].fingerprint()
        kept = []
        for line in Path(journal_path).read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "trial" and record["spec"] == second_fp:
                break
            kept.append(line)
        # Drop trailing corpus deltas (they belong to the batch whose
        # trials were lost in the "kill").
        while kept and json.loads(kept[-1]).get("kind") == "corpus":
            kept.pop()
        Path(journal_path).write_text("\n".join(kept) + "\n")

        resumed_engine = CampaignEngine(backend=SerialBackend(batch_size=2),
                                        checkpoint_path=journal_path,
                                        reuse_results=False)
        resumed = resumed_engine.run_grid(specs)
        assert _canonical(resumed) == _canonical(original)
        assert resumed_engine.monitor.restored_trials == specs[0].trials
        assert (resumed_engine.corpus_state.coverage_points()
                == engine.corpus_state.coverage_points())


class TestDistributedConvergence:
    def test_two_workers_converge_to_dispatcher_map(self, tmp_path):
        queue_dir = tmp_path / "spool"
        spec = _spec(trials=4, num_tests=6)
        workers = [_start_worker(queue_dir), _start_worker(queue_dir)]
        try:
            backend = DistributedBackend(str(queue_dir), batch_size=1,
                                         poll_interval=0.05,
                                         max_wait_seconds=120.0,
                                         stop_workers_on_exit=True)
            engine = CampaignEngine(backend=backend)
            (trialset,) = engine.run_grid([spec])
        finally:
            for worker in workers:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    raise
        assert all(result is not None for result in trialset.results)

        dispatcher_points = engine.corpus_state.coverage_points()
        assert dispatcher_points

        queue = SpoolQueue(str(queue_dir))
        snapshots = queue.coverage_snapshots()
        assert snapshots, "workers that served corpus batches must snapshot"
        for worker_id, payload in snapshots.items():
            worker_points = CorpusManager.from_payload(payload).coverage_points()
            assert worker_points == dispatcher_points, (
                f"worker {worker_id} diverged from the dispatcher's map")
        # The final broadcast carries the same map.
        broadcast = queue.read_coverage_global()
        assert broadcast is not None
        broadcast_points = CorpusManager.from_payload(
            broadcast["state"]).coverage_points()
        assert broadcast_points == dispatcher_points


def _start_worker(queue_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--queue",
         str(queue_dir), "--poll-interval", "0.05"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
