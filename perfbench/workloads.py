"""The benchmark's three campaign workloads, built from a seed.

Each workload is a fixed grid of :class:`~repro.harness.campaign.CampaignSpec`
whose composition never changes; the ``--seed`` argument only becomes the
specs' base seed, so the program under test receives nothing but the
generated specs.  Why each grid looks the way it does is written down in
``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List

from repro.exec import (CampaignEngine, DistributedBackend, LocalTransport,
                        SerialBackend, WorkerSpec, WorkerSupervisor)
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec

WORKLOADS = ("paper-campaign", "trap-csr", "fleet-grid")

_CAMPAIGN_FACTS = ("digest", "coverage_points", "bug_pairs", "tests_to_detect")

#: simulated statistics every round of a workload must repeat exactly, and
#: match with ``digests.json``.  Fleet-grid's own results depend on
#: scheduling, so only its serial check grid (:func:`build_check_specs`)
#: is digest-gated.
SIMULATED = {"paper-campaign": _CAMPAIGN_FACTS, "trap-csr": _CAMPAIGN_FACTS,
             "fleet-grid": ("check_digest",)}

#: supervised local workers serving fleet-grid's spool queue.
FLEET_WORKERS = 2

#: a fleet-grid round that has not finished by then is a hang, not a
#: slow run; the dispatcher raises instead of waiting forever.
FLEET_MAX_WAIT_SECONDS = 120.0

_PAPER_PROCESSORS = ("rocket", "cva6")
_PAPER_FUZZERS = ("thehuzz", "mabfuzz:egreedy", "mabfuzz:ucb", "mabfuzz:exp3")
_FLEET_PROCESSORS = ("rocket", "cva6", "boom")
_FLEET_FUZZERS = ("thehuzz", "mabfuzz:ucb")


def build_specs(workload: str, seed: int) -> List[CampaignSpec]:
    """The grid of ``workload`` for base seed ``seed``."""
    if workload == "paper-campaign":
        # The paper's campaign: default bug sets, base coverage, no corpus.
        return [CampaignSpec(processor=processor, fuzzer=fuzzer,
                             num_tests=500, trials=2, seed=seed, bugs=None)
                for processor in _PAPER_PROCESSORS
                for fuzzer in _PAPER_FUZZERS]
    if workload == "trap-csr":
        config = FuzzerConfig(scenario="mixed")
        return [CampaignSpec(processor=processor, fuzzer="mabfuzz:ucb",
                             num_tests=300, trials=10, seed=seed, bugs=[],
                             fuzzer_config=config, coverage_model="csr")
                for processor in _PAPER_PROCESSORS]
    if workload == "fleet-grid":
        config = FuzzerConfig(corpus=True)
        return [CampaignSpec(processor=processor, fuzzer=fuzzer,
                             num_tests=40, trials=20, seed=seed, bugs=[],
                             fuzzer_config=config)
                for processor in _FLEET_PROCESSORS
                for fuzzer in _FLEET_FUZZERS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build_check_specs(seed: int) -> List[CampaignSpec]:
    """Fleet-grid's check grid: corpus off, so its results are exact.

    Without bugs or the CSR tracker the DUT runs fused, and boom is in it,
    neither of which the other two workloads' digests cover.
    """
    return [CampaignSpec(processor=processor, fuzzer="mabfuzz:ucb",
                         num_tests=40, trials=1, seed=seed, bugs=[])
            for processor in _FLEET_PROCESSORS]


class BenchTransport(LocalTransport):
    """Local transport that starts workers from ``perfbench/worker.py``.

    The supervisor builds a ``python -m repro.cli worker ...`` command;
    this transport keeps its arguments but swaps the entry point for the
    benchmark's own, which installs the benchmark's hooks before serving
    the queue through :func:`repro.exec.run_worker`.  It also notes when
    each worker was launched, so worker start-up time can be measured.
    """

    _CLI_PREFIX = ["-m", "repro.cli", "worker"]

    def __init__(self) -> None:
        #: ``time.monotonic()`` at each worker's launch, by worker id.
        self.spawn_times: Dict[str, float] = {}

    def _spawn(self, command, extra_env, host, worker_id, log_path):
        command = list(command)
        if command[1:4] != self._CLI_PREFIX:
            raise ValueError(f"unexpected worker command: {command}")
        worker_script = os.path.join(os.path.dirname(__file__), "worker.py")
        command = [command[0], worker_script, *command[4:]]
        self.spawn_times[worker_id] = time.monotonic()
        return super()._spawn(command, extra_env, host, worker_id, log_path)


def build_engine(workload: str, work_dir: str, monitor,
                 worker_env: Dict[str, str]):
    """The engine (and, for fleet-grid, the transport) one round runs on.

    Every round journals to a fresh checkpoint file, so nothing is ever
    restored from an earlier round.
    """
    journal = os.path.join(work_dir, "journal.jsonl")
    if workload != "fleet-grid":
        engine = CampaignEngine(backend=SerialBackend(), checkpoint_path=journal,
                                monitor=monitor, reuse_results=False)
        return engine, None
    queue_dir = os.path.join(work_dir, "queue")
    transport = BenchTransport()
    supervisor = WorkerSupervisor(
        [WorkerSpec(host=f"local-{index}", transport=transport)
         for index in range(FLEET_WORKERS)],
        queue_dir, python=sys.executable, env=worker_env,
        log_dir=os.path.join(work_dir, "logs"))
    backend = DistributedBackend(queue_dir, supervisor=supervisor,
                                 max_wait_seconds=FLEET_MAX_WAIT_SECONDS)
    engine = CampaignEngine(backend=backend, checkpoint_path=journal,
                            monitor=monitor, reuse_results=False)
    return engine, transport
