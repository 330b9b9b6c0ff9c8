"""Benchmark-owned entry point for fleet-grid's supervised workers.

Started by :class:`workloads.BenchTransport` in place of
``python -m repro.cli worker`` with the same ``--queue``/``--worker-id``
arguments.  It installs the benchmark's probes (and, when
``PERFBENCH_TRACE=1``, the span tracer), serves the queue through
:func:`repro.exec.run_worker` with the CLI's default settings, and on exit
writes ``worker-<id>.json`` (plus ``spans-<id>.jsonl`` when traced) into
the directory named by ``PERFBENCH_OUT``.  With ``PERFBENCH_PROBE=1`` (a
set-up probe) it instead writes ``first-test-<id>.json`` after its first
test and exits at once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import probes  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queue", required=True)
    parser.add_argument("--worker-id", required=True)
    args = parser.parse_args()
    out_dir = os.environ["PERFBENCH_OUT"]
    traced = os.environ.get("PERFBENCH_TRACE") == "1"

    from repro.exec import run_worker

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_worker = tracer.span("run_worker", run_worker)
    on_first_test = None
    if os.environ.get("PERFBENCH_PROBE") == "1":
        def on_first_test(when):
            path = os.path.join(out_dir, f"first-test-{args.worker_id}.json")
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump({"first_test_at": when}, handle)
            os.replace(path + ".tmp", path)  # the dispatcher never reads half a file
            os._exit(0)  # the probe is over; skip draining the queue
    probe = probes.RunProbe(on_first_test)
    probe.install()
    ready_at = time.monotonic()
    batches = run_worker(args.queue, worker_id=args.worker_id,
                         log=lambda line: print(line, file=sys.stderr, flush=True))
    report = {"worker_id": args.worker_id, "batches": batches,
              "ready_at": ready_at, "first_test_at": probe.first_test_at,
              "trials": probe.trials,
              "inconsistent_trials": probe.inconsistent_trials,
              "points": sorted(probe.points),
              "peak_rss_mib": probes.peak_rss_mib(),
              "trace": tracer.summary() if tracer else None}
    if tracer is not None:
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.worker_id}.jsonl"))
    with open(os.path.join(out_dir, f"worker-{args.worker_id}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
