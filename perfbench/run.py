"""End-to-end campaign benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's fixed grid (``perfbench/workloads.py``),
each in a fresh interpreter (``perfbench/round.py``), for about
``--seconds``, then set-up probes; checks every round's outputs; prints
each metric by name and unit; and prints one JSON object as the last line
of standard output.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics plus the
tracing overhead.  Exits 1 if any output is wrong, 2 if the program under
test is not there.  ``perfbench/README.md`` explains every number.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(_HERE, "digests.json")

#: a run stops every child still running this long after it started, so
#: it always ends within its budget.
RUN_TIMEOUT_SECONDS = 165.0

#: set-up probes per untraced run, besides the rounds' own set-ups.
SETUP_PROBES = 4

#: a set-up probe that has not reached its first test by then has failed.
PROBE_TIMEOUT_SECONDS = 30.0


def metric_units() -> dict:
    """Every metric's unit, by name, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in declared["end_to_end"] + declared["per_layer"]}


def stop_session(process):
    """Kill whatever is left of a round's session (its workers), then reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def run_child(arguments, work_dir, name, timeout):
    """Run ``round.py`` with ``arguments``; its JSON report, or ``None``.

    The child gets a session of its own, so a timeout or an interrupted
    run kills it and every worker it supervises together.
    """
    out = os.path.join(work_dir, f"{name}.json")
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, os.path.join(_HERE, "round.py"), *arguments,
         "--work-dir", os.path.join(work_dir, name), "--out", out,
         "--spawned-at", repr(spawned_at)], start_new_session=True)
    try:
        returncode = process.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        returncode = None
    finally:
        stop_session(process)
    if returncode != 0:
        return None
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def probe_setups(workload, seed, work_dir, deadline):
    """``SETUP_PROBES`` probe reports (``None`` for a probe that failed)."""
    return [run_child(["--workload", workload, "--seed", str(seed), "--probe"],
                      work_dir, f"probe-{index}",
                      min(PROBE_TIMEOUT_SECONDS, deadline - time.monotonic()))
            for index in range(SETUP_PROBES)]


def run_rounds(workload, seed, seconds, trace, work_dir, deadline):
    """Run rounds until ``seconds`` pass; alternate traced ones if ``trace``."""
    started = time.monotonic()
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        result = run_child(
            ["--workload", workload, "--seed", str(seed),
             "--trace", "1" if traced else "0"],
            work_dir, f"round-{len(rounds)}", deadline - time.monotonic())
        if result is None:
            result = {"traced": traced, "crashed": "round failed or timed out"}
        rounds.append(result)
        if "crashed" in result:
            break
        if trace and len(rounds) < 2:
            continue
        # Start another round only if it should end within 20% of the
        # budget: a run always finishes its rounds whole.
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(rounds) > 1.2 * seconds:
            break
    return rounds


def check_rounds(workload, seed, rounds, expected_trials, simulated):
    """Every problem found in ``rounds``; marks condemned rounds in place.

    ``simulated`` names the facts every round must repeat exactly.
    """
    problems = []
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            recorded = json.load(handle).get("workloads", {}).get(
                workload, {}).get(str(seed), {})
    reference = None
    for index, result in enumerate(rounds):
        if "crashed" in result:
            problems.append(f"round {index}: {result['crashed']}")
            result["failed_trials"] = expected_trials
            continue
        problems.extend(f"round {index}: {failure}" for failure in result["failures"])
        # Simulated statistics are a pure function of the seed: every
        # round must match the values recorded for the seed and round 0.
        facts = {key: result[key] for key in simulated}
        for source, expected in (("digests.json", recorded), ("round 0", reference)):
            wrong = [key for key in simulated
                     if expected and key in expected and expected[key] != facts[key]]
            if wrong:
                problems.append(f"round {index}: {', '.join(wrong)} differ from {source}")
                result["failed_trials"] = result["trials_expected"]
        reference = reference or facts
    return problems


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def tests_per_s(rounds):
    """Tests per host second of the timed parts of ``rounds``."""
    return ratio(sum(r["tests"] for r in rounds), sum(r["timed_s"] for r in rounds))


def end_to_end(rounds, setups):
    """The end-to-end metrics over untraced rounds and set-up probes."""
    plain = [r for r in rounds if not r["traced"] and "crashed" not in r]
    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "tests_per_s": tests_per_s(plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain + setups),
        "peak_rss_mb": max([parent_rss] + [r["peak_rss_mib"] for r in plain]),
        "coverage_points": statistics.median(r["coverage_points"] for r in plain),
    }


def per_layer(rounds, tracing):
    """The per-layer metrics, averaged per traced round, plus overhead."""
    traced = [r for r in rounds if r["traced"] and "crashed" not in r]
    plain = [r for r in rounds if not r["traced"] and "crashed" not in r]
    count = len(traced)
    merged = tracing.merge_summaries([r["trace"] for r in traced])
    spans, counts, test_ms = merged["spans"], merged["counts"], merged["test_ms"]

    def summed(source, key):
        return sum(r[source].get(key, 0) for r in traced)

    layer_self = {}
    for name, entry in spans.items():
        layer = tracing.layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"]

    def self_s(*layers):
        return sum(layer_self.get(layer, 0.0) for layer in layers) / count

    def calls(*names):
        return sum(spans.get(name, {}).get("calls", 0) for name in names) / count

    def total_s(*names):
        return sum(spans.get(name, {}).get("total_s", 0.0) for name in names) / count

    def hit_ratio(prefix):
        hits = summed("cache_stats", f"{prefix}_hits")
        return ratio(hits, hits + summed("cache_stats", f"{prefix}_misses"))

    golden_hits = summed("metadata_sums", "golden_cache_hits")
    golden_lookups = golden_hits + summed("metadata_sums", "golden_cache_misses")
    admitted = summed("metadata_sums", "corpus_admitted")
    offered = admitted + summed("metadata_sums", "corpus_rejected")
    wall = sum(r["process_wall_s"] for r in traced)
    untraced_rate = tests_per_s(plain)
    traced_rate = tests_per_s(traced)
    return {
        "rtl.dut.self_s": self_s("rtl.dut"),
        "rtl.dut.calls": calls("DutModel.run"),
        "rtl.dut.cache_hit_ratio": hit_ratio("dut_cache"),
        "rtl.generic_block_ratio": ratio(counts.get("dut.generic_blocks", 0),
                                         counts.get("dut.block_dispatches", 0)),
        "sim.golden.self_s": self_s("sim.golden"),
        "sim.golden.calls": calls("GoldenModel.run"),
        "sim.golden.cache_hit_ratio": ratio(
            golden_hits + summed("cache_stats", "shared_golden_hits"), golden_lookups),
        "isa.compiled.hit_ratio": hit_ratio("compiled_trace"),
        "isa.superblock.hit_ratio": hit_ratio("superblock"),
        "isa.generate.self_s": self_s("isa.generate"),
        "isa.generate.calls": calls("SeedGenerator.generate",
                                    "TrapScenarioGenerator.generate"),
        "fuzzing.mutation.self_s": self_s("fuzzing.mutation"),
        "fuzzing.mutation.calls": calls("MutationEngine.mutate_once"),
        "core.scheduler.self_s": self_s("core.scheduler"),
        "core.resets": summed("metadata_sums", "total_resets") / count,
        "fuzzing.differential.self_s": self_s("fuzzing.differential"),
        "coverage.record.self_s": self_s("coverage.record"),
        "fuzzing.test_p50_ms": statistics.median(test_ms),
        "fuzzing.test_p99_ms": statistics.quantiles(test_ms, n=100,
                                                    method="inclusive")[98],
        "fuzzing.corpus.self_s": self_s("fuzzing.corpus", "fuzzing.corpus.payload"),
        "fuzzing.corpus.payload_s": self_s("fuzzing.corpus.payload"),
        "fuzzing.corpus.admit_ratio": ratio(admitted, offered),
        "harness.trial_setup_s": total_s("make_processor", "make_fuzzer"),
        "exec.batching.execute_s": total_s("execute_batch"),
        "exec.checkpoint.self_s": self_s("exec.checkpoint"),
        "exec.checkpoint.records": calls("CheckpointJournal.record_grid",
                                         "CheckpointJournal.record_trial",
                                         "CheckpointJournal.record_corpus"),
        "exec.queue.self_s": self_s("exec.queue"),
        "exec.queue.ops": sum(entry["calls"] for name, entry in spans.items()
                              if tracing.layer_of(name) == "exec.queue") / count,
        "exec.queue.retries": sum(summed("robustness", key) for key in
                                  ("requeued", "retried", "deadlettered")) / count,
        "exec.distributed.wait_s": self_s("exec.distributed.wait"),
        "exec.worker.idle_s": self_s("exec.worker"),
        "exec.transport.spawn_s": sum(r["spawn_s"] for r in traced) / count,
        "exec.transport.restarts": summed("transport", "restarts") / count,
        "trace.wall_s": wall / count,
        "trace.blocking_share": ratio(sum(layer_self.get(layer, 0.0) for layer
                                          in tracing.BLOCKING_LAYERS), wall),
        "trace.exec_corpus_share": ratio(sum(layer_self.get(layer, 0.0) for layer
                                             in tracing.EXEC_CORPUS_LAYERS), wall),
        "trace.untraced_tests_per_s": untraced_rate,
        "trace.traced_tests_per_s": traced_rate,
        "trace.overhead_ratio": ratio(untraced_rate, traced_rate) - 1.0,
    }


def keep_spans(workload, rounds, work_dir):
    """Move the last traced round's span files to ``.perfbench/traces/``."""
    traced = [index for index, r in enumerate(rounds)
              if r["traced"] and "crashed" not in r]
    if not traced:
        return None
    target = os.path.join(WORK_ROOT, "traces", workload)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    round_dir = os.path.join(work_dir, f"round-{traced[-1]}")
    for name in sorted(os.listdir(round_dir)):
        if name.startswith("spans-"):
            shutil.move(os.path.join(round_dir, name), os.path.join(target, name))
    return os.path.relpath(target, ROOT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops the child it started (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work_dir = os.path.join(WORK_ROOT, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    deadline = time.monotonic() + RUN_TIMEOUT_SECONDS
    setups = []
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            bool(args.trace), work_dir, deadline)
        spans_dir = keep_spans(args.workload, rounds, work_dir) if args.trace else None
        if not args.trace:
            setups = probe_setups(args.workload, args.seed, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    expected = sum(spec.trials for spec in workloads.build_specs(args.workload, args.seed))
    problems = check_rounds(args.workload, args.seed, rounds, expected,
                            workloads.SIMULATED[args.workload])
    problems += [f"set-up probe {index} failed or timed out"
                 for index, setup in enumerate(setups) if setup is None]
    setups = [setup for setup in setups if setup is not None]
    attempted = expected * len(rounds)
    failed = sum(r.get("failed_trials", 0) for r in rounds)
    correct = not problems and failed == 0
    good = [r for r in rounds if "crashed" not in r]
    plain = [r for r in good if not r["traced"]]

    print(f"perfbench {args.workload} seed={args.seed}: {len(rounds)} rounds "
          f"({len(good) - len(plain)} traced)")
    for problem in problems:
        print(f"  FAILED {problem}")
    metrics = {}
    if plain and (not args.trace or len(plain) < len(good)):
        values = (per_layer(rounds, tracing) if args.trace
                  else end_to_end(rounds, setups))
        units = metric_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
        print_report(good, plain, setups, failed, attempted)
        for name, metric in metrics.items():
            print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
        if spans_dir:
            print(f"  spans of the last traced round: {spans_dir}/")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_report(good, plain, setups, failed, attempted):
    """Human-readable lines: samples, simulated statistics, failure accounting."""
    print(f"  untraced rounds (n={len(plain)}): tests/s " + ", ".join(
        f"{r['tests'] / r['timed_s']:.1f}" for r in plain))
    print(f"  setup_s (n={len(plain) + len(setups)}): " + ", ".join(
        f"{r['setup_s']:.3f}" for r in plain + setups))
    # Simulated statistics, identical in every round of a deterministic
    # workload.  Detections exist only where bugs are injected, so they
    # are printed here and gated through the result digest.
    first = good[0]
    tests_to_detect = first["tests_to_detect"]
    print(f"  {'bugs_detected':30s} {len(first['bug_pairs'])} (processor, bug) pairs")
    print(f"  {'tests_to_detect':30s} " + (
        f"{statistics.median(tests_to_detect):g} tests (median of "
        f"{len(tests_to_detect)} (spec, bug) pairs)" if tests_to_detect
        else "n/a (no bug injected or detected)"))
    print(f"  {'trial_fail_ratio':30s} {ratio(failed, attempted):g} "
          f"({failed} of {attempted} trials attempted)")
    retries = sum(r["robustness"].get(key, 0) for r in good
                  for key in ("requeued", "retried", "deadlettered"))
    print(f"  {'queue retries':30s} {retries} (requeued + retried + deadlettered)")
    print(f"  {'quarantined trials':30s} {sum(r['quarantined_trials'] for r in good)}")
    print(f"  {'transport restarts':30s} "
          f"{sum(r['transport'].get('restarts', 0) for r in good)}")
    print(f"  {'result digest':30s} {first['digest']}")
    if "check_digest" in first:
        print(f"  {'check grid digest':30s} {first['check_digest']}")


if __name__ == "__main__":
    sys.exit(main())
