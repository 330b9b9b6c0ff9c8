"""One round of a workload: its whole grid, in a fresh interpreter.

``run.py`` starts one of these per round, so every round pays what a user
pays when they start a campaign: cold imports, empty process caches.  The
round runs the workload's grid through ``CampaignEngine.run_grid``, checks
the outputs, and writes a JSON report to ``--out``::

    python3 perfbench/round.py --workload trap-csr --seed 1 --trace 0 \\
        --work-dir .perfbench/work/r0 --out r0.json --spawned-at <monotonic>

With ``--probe`` it is a set-up probe instead: it stops the grid at the
first executed test and reports only ``setup_s``.  With ``--check-only``
it runs only fleet-grid's check grid and reports its ``check_digest``
(``record_digests.py`` records that).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.monitor import ProgressMonitor  # noqa: E402
from repro.exec import CampaignEngine, SerialBackend  # noqa: E402
from repro.exec.queue import SpoolQueue  # noqa: E402
from repro.fuzzing.corpus import CorpusManager  # noqa: E402


class CompletionClock(ProgressMonitor):
    """Silent progress monitor that remembers when the last trial finished."""

    last_completion = None

    def trial_completed(self, label="", metadata=None):
        super().trial_completed(label, metadata)
        self.last_completion = time.monotonic()


#: result metadata that counts host-side golden-trace cache traffic, not
#: simulated behaviour: resizing or rekeying the cache changes it while
#: every simulated statistic stays the same.
HOST_METADATA = ("golden_cache_hits", "golden_cache_misses")


def canonical(result):
    """``result.canonical_dict()`` without the host-side cache counters."""
    data = result.canonical_dict()
    for key in HOST_METADATA:
        data["metadata"].pop(key, None)
    return data


def result_digest(trialsets) -> str:
    """SHA-256 over every trial's canonical result, in grid order."""
    digest = hashlib.sha256()
    for trialset in trialsets:
        for result in trialset.results:
            data = canonical(result) if result is not None else None
            digest.update(json.dumps(data, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def check_digest(seed) -> str:
    """Result digest of fleet-grid's check grid, run serially in-process.

    Fleet-grid's own results depend on scheduling, so this small corpus-off
    grid is what gates the fused DUT path and boom exactly.
    """
    engine = CampaignEngine(backend=SerialBackend(), monitor=ProgressMonitor(),
                            reuse_results=False)
    return result_digest(engine.run_grid(workloads.build_check_specs(seed)))


def detections(trialsets):
    """Distinct (processor, bug) pairs, and tests-to-detect per (spec, bug).

    A (spec, bug) pair detected in several trials counts with the mean of
    its detecting trials, as the paper's Table I does.  The values come back
    sorted: a test that detects two bugs records them in set order, which
    varies with the interpreter's hash seed.
    """
    pairs = set()
    per_spec_bug = []
    for trialset in trialsets:
        found = {}
        for result in trialset.completed_results():
            for bug_id, detection in result.bug_detections.items():
                pairs.add((trialset.processor, bug_id))
                found.setdefault(bug_id, []).append(detection.tests_to_detection)
        per_spec_bug.extend(statistics.fmean(tests) for tests in found.values())
    return sorted(pairs), sorted(per_spec_bug)


class FirstTestDone(Exception):
    """Raised to end a set-up probe once the first test has run."""


def run_probe(args) -> dict:
    """Set-up time alone: process start to the first executed test."""
    os.makedirs(args.work_dir, exist_ok=True)

    def stop(when):
        raise FirstTestDone

    probe = probes.RunProbe(stop)
    probe.install()
    engine, transport = workloads.build_engine(
        args.workload, args.work_dir, CompletionClock(),
        {"PERFBENCH_OUT": args.work_dir, "PERFBENCH_PROBE": "1"})
    markers = []
    if transport is not None:
        # Fleet workers note their first test in a file and exit; the
        # dispatcher looks for it every poll and ends the grid.
        supervisor = engine.backend.supervisor
        poll = supervisor.poll

        def poll_for_first_test():
            poll()
            for name in os.listdir(args.work_dir):
                if name.startswith("first-test-") and name.endswith(".json"):
                    with open(os.path.join(args.work_dir, name), encoding="utf-8") as handle:
                        markers.append(json.load(handle)["first_test_at"])
            if markers:
                raise FirstTestDone

        supervisor.poll = poll_for_first_test
    try:
        engine.run_grid(workloads.build_specs(args.workload, args.seed))
    except FirstTestDone:
        pass
    first_test = probe.first_test_at or min(markers)
    return {"setup_s": first_test - args.spawned_at}


def read_workers(work_dir, transport, failures):
    """The reports fleet-grid's workers left on exit, plus total spawn time."""
    workers, spawn_s = [], 0.0
    for worker_id, spawned in sorted(transport.spawn_times.items()):
        path = os.path.join(work_dir, f"worker-{worker_id}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                worker = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            failures.append(f"worker {worker_id} left no report: {error}")
            continue
        worker["points"] = set(worker["points"])
        spawn_s += worker["ready_at"] - spawned
        workers.append(worker)
    return workers, spawn_s


def check_convergence(engine, workers, queue_dir, failures):
    """The corpus convergence invariant of ``docs/corpus.md``.

    The dispatcher's global map must be the union of every trial's
    coverage, and every worker's parting snapshot must equal it.
    """
    union = set().union(*(worker["points"] for worker in workers))
    global_map = set(engine.corpus_state.coverage_points()
                     if engine.corpus_state is not None else ())
    if global_map != union:
        failures.append(f"corpus map has {len(global_map)} points, trial "
                        f"coverage union has {len(union)}")
    snapshots = SpoolQueue(queue_dir).coverage_snapshots()
    if len(snapshots) != len(workers):
        failures.append(f"{len(snapshots)} worker corpus snapshots for "
                        f"{len(workers)} workers")
    for worker_id, payload in sorted(snapshots.items()):
        if set(CorpusManager.from_payload(payload).coverage_points()) != global_map:
            failures.append(f"worker {worker_id} snapshot diverges from "
                            "the dispatcher's corpus map")


def run_round(args) -> dict:
    os.makedirs(args.work_dir, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe = probes.RunProbe()
    probe.install()
    monitor = CompletionClock()
    worker_env = {"PERFBENCH_OUT": args.work_dir,
                  "PERFBENCH_TRACE": "1" if args.trace else "0"}
    engine, transport = workloads.build_engine(
        args.workload, args.work_dir, monitor, worker_env)
    specs = workloads.build_specs(args.workload, args.seed)

    started = time.monotonic()
    trialsets = engine.run_grid(specs)
    # The timed part ends with the last result; the fleet's drain after it
    # is shutdown, not throughput.
    ended = monitor.last_completion or time.monotonic()

    failures = []
    expected = sum(spec.trials for spec in specs)
    completed = [result for trialset in trialsets
                 for result in trialset.completed_results()]
    failures.extend(f"{trialset.spec.describe()}: ran {result.num_tests} tests"
                    for trialset in trialsets
                    for result in trialset.completed_results()
                    if result.num_tests != trialset.spec.num_tests)
    processes = [{"peak_rss_mib": probes.peak_rss_mib(),
                  "first_test_at": probe.first_test_at,
                  "points": probe.points, "trials": probe.trials,
                  "inconsistent_trials": probe.inconsistent_trials,
                  "trace": tracer.summary() if tracer else None}]
    spawn_s = 0.0
    if transport is not None:
        workers, spawn_s = read_workers(args.work_dir, transport, failures)
        check_convergence(engine, workers, os.path.join(args.work_dir, "queue"),
                          failures)
        processes += workers
    trials_seen = sum(process["trials"] for process in processes)
    if trials_seen != len(completed):
        failures.append(f"{trials_seen} trials executed for {len(completed)} results")
    inconsistent = sum(process["inconsistent_trials"] for process in processes)
    if inconsistent:
        failures.append(f"{inconsistent} trials report a coverage count "
                        "unequal to their covered points")
    # Missing (failed or quarantined) trials count one by one; any other
    # failed check condemns the whole round.
    report = engine.last_run_report
    missing = expected - len(completed)
    quarantined = int(report.get("quarantined_trials", 0))
    failed_trials = expected if failures else missing
    if missing:
        failures.append(f"{missing} of {expected} trials missing "
                        f"({quarantined} quarantined)")

    first_tests = [process["first_test_at"] for process in processes
                   if process["first_test_at"] is not None]

    pairs, tests_to_detect = detections(trialsets)
    metadata_sums = {}
    for result in completed:
        for key in ("total_resets", "golden_cache_hits", "golden_cache_misses",
                    "corpus_admitted", "corpus_rejected"):
            value = result.metadata.get(key)
            if isinstance(value, int):
                metadata_sums[key] = metadata_sums.get(key, 0) + value
    traces = [process["trace"] for process in processes if process["trace"]]
    if tracer is not None:
        tracer.write_spans(os.path.join(args.work_dir, "spans-round.jsonl"))
    result = {
        "traced": bool(args.trace),
        "timed_s": ended - started,
        "setup_s": (min(first_tests) if first_tests else ended) - args.spawned_at,
        "tests": sum(result.num_tests for result in completed),
        "trials_expected": expected,
        "quarantined_trials": quarantined,
        "failed_trials": failed_trials,
        "failures": failures,
        "digest": result_digest(trialsets),
        "coverage_points": len(set().union(*(process["points"]
                                             for process in processes))),
        "bug_pairs": [list(pair) for pair in pairs],
        "tests_to_detect": tests_to_detect,
        "peak_rss_mib": max(process["peak_rss_mib"] for process in processes),
        "robustness": dict(report.get("robustness", {})),
        "transport": {key: value for key, value in
                      dict(report.get("transport", {})).items()
                      if isinstance(value, int)},
        "cache_stats": dict(engine.backend.cache_stats),
        "metadata_sums": metadata_sums,
        "spawn_s": spawn_s,
        # Traced process time: the timed part plus each worker's lifetime.
        "process_wall_s": ended - started + sum(
            trace["spans"].get("run_worker", {}).get("total_s", 0.0)
            for trace in traces),
        "trace": tracing.merge_summaries(traces) if traces else None,
    }
    if transport is not None:
        # After everything above is taken, so the check grid's trials add
        # nothing to the probe, the spans or the peak resident set.
        result["check_digest"] = check_digest(args.seed)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this round")
    parser.add_argument("--probe", action="store_true",
                        help="stop at the first test and report setup_s only")
    parser.add_argument("--check-only", action="store_true",
                        help="run only fleet-grid's check grid; report check_digest")
    args = parser.parse_args()
    if args.check_only:
        result = {"check_digest": check_digest(args.seed), "failures": []}
    elif args.probe:
        result = run_probe(args)
    else:
        result = run_round(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
