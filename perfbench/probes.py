"""Hooks every benchmark process installs, traced or not.

They cost one call per trial plus one call for the first test:

* the moment the process finishes its first test, which ends set-up;
* the coverage points each trial reached, whose union is the workload's
  ``coverage_points`` and, on fleet-grid, what the dispatcher's corpus map
  must converge to.
"""

from __future__ import annotations

import resource
import time
from typing import Optional, Set


class RunProbe:
    """Records first-test time and the union of trial coverage.

    ``on_first_test``, when given, is called right after the first test
    is recorded; set-up probes use it to stop the process there.
    """

    def __init__(self, on_first_test=None) -> None:
        self.on_first_test = on_first_test
        self.first_test_at: Optional[float] = None
        self.points: Set[str] = set()
        self.trials = 0
        #: trials whose reported coverage count disagreed with their points.
        self.inconsistent_trials = 0

    def install(self) -> None:
        from repro.fuzzing.base import Fuzzer

        fuzz_one = Fuzzer.fuzz_one
        run = Fuzzer.run
        probe = self

        def first_fuzz_one(fuzzer):
            outcome = fuzz_one(fuzzer)
            if probe.first_test_at is None:
                probe.first_test_at = time.monotonic()
                Fuzzer.fuzz_one = fuzz_one  # one-shot: later tests pay nothing
                if probe.on_first_test is not None:
                    probe.on_first_test(probe.first_test_at)
            return outcome

        def recorded_run(fuzzer, num_tests, metadata=None):
            result = run(fuzzer, num_tests, metadata)
            covered = fuzzer.session.coverage_db.covered
            probe.points |= covered
            probe.trials += 1
            if len(covered) != result.coverage_count:
                probe.inconsistent_trials += 1
            return result

        Fuzzer.fuzz_one = first_fuzz_one
        Fuzzer.run = recorded_run


def peak_rss_mib() -> float:
    """Peak resident set of the calling process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
