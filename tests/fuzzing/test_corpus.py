"""Unit tests for the coverage-directed corpus (`repro.fuzzing.corpus`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzing.corpus import DEFAULT_MAX_ENTRIES, CorpusEntry, CorpusManager
from repro.isa.generator import SeedGenerator


def _programs(count, seed=11):
    generator = SeedGenerator(rng=seed)
    return [generator.generate() for _ in range(count)]


def _offer(manager, program, points, **kwargs):
    return manager.offer(program, frozenset(points), **kwargs)


class TestAdmission:
    def test_first_offer_admitted(self):
        manager = CorpusManager()
        (program,) = _programs(1)
        assert _offer(manager, program, {"t.a", "t.b"})
        assert len(manager) == 1
        assert manager.covered_count == 2
        assert manager.counters["admitted"] == 1

    def test_duplicate_coverage_rejected(self):
        manager = CorpusManager()
        first, second = _programs(2)
        assert _offer(manager, first, {"t.a", "t.b"})
        assert not _offer(manager, second, {"t.a"})
        assert len(manager) == 1
        assert manager.counters["rejected"] == 1

    def test_one_novel_bit_is_enough(self):
        manager = CorpusManager()
        first, second = _programs(2)
        _offer(manager, first, {"t.a", "t.b"})
        assert _offer(manager, second, {"t.a", "t.b", "t.c"})
        assert manager.covered_count == 3

    def test_novelty_judged_against_merged_state(self):
        # A manager that inherited points from elsewhere (another trial,
        # a dispatcher broadcast) must reject programs that only re-reach
        # those points.
        manager = CorpusManager()
        manager.merge_points({"t.a", "t.b"})
        (program,) = _programs(1)
        assert not _offer(manager, program, {"t.a"})

    def test_provenance_recorded(self):
        manager = CorpusManager()
        (program,) = _programs(1)
        _offer(manager, program, {"t.a"}, scenario="trap")
        entry = next(iter(manager.entries.values()))
        assert entry.scenario == "trap"
        assert entry.fingerprint == program.fingerprint()


class TestEviction:
    def test_dominated_entry_evicted(self):
        manager = CorpusManager()
        small, big = _programs(2)
        _offer(manager, small, {"t.a"})
        _offer(manager, big, {"t.a", "t.b"})  # strict superset dominates
        assert len(manager) == 1
        assert next(iter(manager.entries)) == big.fingerprint()
        assert manager.counters["evicted"] == 1

    def test_partial_overlap_keeps_both(self):
        manager = CorpusManager()
        first, second = _programs(2)
        _offer(manager, first, {"t.a", "t.x"})
        _offer(manager, second, {"t.a", "t.y"})
        assert len(manager) == 2

    def test_capacity_evicts_smallest_then_oldest(self):
        manager = CorpusManager(max_entries=2)
        p1, p2, p3 = _programs(3)
        _offer(manager, p1, {"t.a"})
        _offer(manager, p2, {"t.b", "t.c"})
        _offer(manager, p3, {"t.d"})  # p1 (1 point, older than p3) goes
        assert set(manager.entries) == {p2.fingerprint(), p3.fingerprint()}
        # Eviction never shrinks the coverage map.
        assert manager.covered_count == 4

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            CorpusManager(max_entries=0)


class TestSampling:
    def test_empty_corpus_samples_none(self):
        assert CorpusManager().sample() is None

    def test_sample_is_seed_deterministic(self):
        def build():
            manager = CorpusManager(rng=42)
            for index, program in enumerate(_programs(5)):
                _offer(manager, program, {f"t.s{index}"})
            return manager

        first = build()
        second = build()
        assert ([first.sample().fingerprint() for _ in range(8)]
                == [second.sample().fingerprint() for _ in range(8)])

    def test_sampled_program_matches_admitted_fingerprint(self):
        manager = CorpusManager(rng=7)
        (program,) = _programs(1)
        _offer(manager, program, {"t.a"})
        sampled = manager.sample()
        assert sampled.fingerprint() == program.fingerprint()
        assert sampled.words() == program.words()
        assert manager.counters["sampled"] == 1


class TestWireFormat:
    def test_entry_round_trip_recomputes_mask(self):
        manager = CorpusManager()
        (program,) = _programs(1)
        _offer(manager, program, {"t.a", "t.b"}, scenario="user")
        entry = next(iter(manager.entries.values()))
        rebuilt = CorpusEntry.from_dict(entry.to_dict())
        assert rebuilt.fingerprint == entry.fingerprint
        assert rebuilt.points == entry.points
        assert rebuilt.mask == entry.mask
        assert "mask" not in entry.to_dict()

    def test_payload_round_trip(self):
        manager = CorpusManager()
        for index, program in enumerate(_programs(4)):
            _offer(manager, program, {f"t.r{index}", "t.shared"})
        clone = CorpusManager.from_payload(manager.to_payload())
        assert clone.coverage_points() == manager.coverage_points()
        assert set(clone.entries) == set(manager.entries)

    def test_merge_is_idempotent(self):
        manager = CorpusManager()
        for index, program in enumerate(_programs(3)):
            _offer(manager, program, {f"t.i{index}"})
        payload = manager.to_payload()
        other = CorpusManager()
        assert other.merge_payload(payload) == 3
        version = other.version
        assert other.merge_payload(payload) == 0
        assert other.version == version
        assert len(other) == len(manager)

    def test_merge_none_and_empty_are_noops(self):
        manager = CorpusManager()
        assert manager.merge_payload(None) == 0
        assert manager.merge_payload({}) == 0
        assert manager.version == 0

    def test_entries_merge_before_points(self):
        # A payload's point list includes its entries' coverage; merging
        # points first would make every entry non-novel and drop all
        # seeds.  The merge order guarantees the seeds survive.
        manager = CorpusManager()
        (program,) = _programs(1)
        _offer(manager, program, {"t.a", "t.b"})
        receiver = CorpusManager()
        receiver.merge_payload(manager.to_payload())
        assert len(receiver) == 1

    def test_delta_window(self):
        manager = CorpusManager()
        base, fresh = _programs(2)
        _offer(manager, base, {"t.a"})
        manager.mark_base()
        delta = manager.delta_payload()
        assert delta == {"points": [], "entries": []}
        _offer(manager, fresh, {"t.a", "t.b"})
        delta = manager.delta_payload()
        assert delta["points"] == ["t.b"]
        assert [e["fingerprint"] for e in delta["entries"]] \
            == [fresh.fingerprint()]
        # Replaying a delta on top of the base state reproduces the map.
        replica = CorpusManager()
        _offer(replica, base, {"t.a"})
        replica.merge_payload(delta)
        assert replica.coverage_points() == manager.coverage_points()


# ------------------------------------------------------------------ live merge
# A small program pool and point universe, so generated histories hit the
# interesting cases: the same fingerprint re-offered with other points,
# dominated entries, and capacity evictions (max_entries as low as 1).
_POOL = _programs(3, seed=29)
_UNIVERSE = [f"m.p{index}" for index in range(12)]
_points = st.frozensets(st.sampled_from(_UNIVERSE), min_size=1, max_size=3)
_step = st.one_of(
    st.tuples(st.just("offer"), st.integers(0, len(_POOL) - 1), _points),
    st.tuples(st.just("points"), st.just(0), _points))
_history = st.tuples(st.integers(1, 4), st.lists(_step, max_size=12))


def _build(history):
    max_entries, steps = history
    manager = CorpusManager(max_entries=max_entries)
    for kind, program, points in steps:
        if kind == "offer":
            manager.offer(_POOL[program], points)
        else:
            manager.merge_points(points)
    return manager


def _state(manager):
    entries = sorted(manager.entries.values(), key=lambda e: e.order)
    return ([(e.fingerprint, e.order, e.points, e.mask, e.words, e.generation)
             for e in entries],
            manager.global_cov, dict(manager.counters), manager.version)


class TestLiveMerge:
    @given(_history, _history)
    @settings(max_examples=150, deadline=None)
    def test_merge_equals_payload_round_trip(self, receiver, sender):
        other = _build(sender)
        live, wired = _build(receiver), _build(receiver)
        assert live.merge(other) == wired.merge_payload(other.to_payload())
        assert _state(live) == _state(wired)

    def test_merge_covers_eviction_cases(self):
        # The corners the property above samples, pinned: a merged entry
        # that dominates a stored one, then a capacity overflow.
        receiver = CorpusManager(max_entries=2)
        first, second, third, fourth = _programs(4, seed=31)
        _offer(receiver, first, {"m.a"})
        _offer(receiver, second, {"m.b"})
        sender = CorpusManager()
        _offer(sender, third, {"m.a", "m.c"})
        _offer(sender, fourth, {"m.d"})
        live = CorpusManager.from_payload(receiver.to_payload(), max_entries=2)
        wired = CorpusManager.from_payload(receiver.to_payload(), max_entries=2)
        live.merge(sender)
        wired.merge_payload(sender.to_payload())
        assert _state(live) == _state(wired)
        # "m.a" alone is dominated; then the oldest one-point entry
        # ("m.b") makes room for "m.d".
        assert live.counters["evicted"] == 2
        assert set(live.entries) == {third.fingerprint(), fourth.fingerprint()}

    def test_merge_follows_admission_order(self):
        # Re-admitting a fingerprint moves it to the end of the admission
        # order but not of the entries dict; merge must follow the order,
        # exactly as a payload (sorted by "order") does.
        sender = CorpusManager()
        first, second = _programs(2, seed=37)
        _offer(sender, first, {"m.a"})
        _offer(sender, second, {"m.b"})
        _offer(sender, first, {"m.a", "m.c"})
        live, wired = CorpusManager(), CorpusManager()
        live.merge(sender)
        wired.merge_payload(sender.to_payload())
        assert _state(live) == _state(wired)
        assert [e.fingerprint for e in sorted(live.entries.values(),
                                              key=lambda e: e.order)] \
            == [second.fingerprint(), first.fingerprint()]

    def test_merge_empty_manager_is_a_noop(self):
        manager = CorpusManager()
        (program,) = _programs(1)
        _offer(manager, program, {"m.a"})
        version = manager.version
        assert manager.merge(CorpusManager()) == 0
        assert manager.merge(manager) == 0
        assert manager.version == version


class TestStats:
    def test_stats_shape(self):
        manager = CorpusManager()
        stats = manager.stats()
        for key in ("admitted", "rejected", "evicted", "sampled",
                    "merged_entries", "merged_points", "entries",
                    "global_points", "version"):
            assert key in stats
        assert stats["entries"] == 0
        assert CorpusManager().max_entries == DEFAULT_MAX_ENTRIES
