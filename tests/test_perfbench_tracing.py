"""Smoke test: the benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` patches classes and modules by attribute name, and
tracing is opt-in (``--trace 1``), so deleting or renaming a wrapped name
would otherwise break only traced benchmark runs.  The tracer is installed
in a fresh interpreter because it patches the library process-wide.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from tracing import Tracer, install
from repro.exec import CampaignEngine, SerialBackend
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec

tracer = Tracer()
install(tracer)
spec = CampaignSpec(processor="rocket", fuzzer="mabfuzz:ucb", num_tests=4,
                    trials=1, seed=5,
                    fuzzer_config=FuzzerConfig(num_seeds=2, mutants_per_test=1))
CampaignEngine(backend=SerialBackend()).run_grid([spec])
spans = tracer.summary()["spans"]
for name in ("GoldenTraceCache.get_or_run", "DutRunCache.get_or_run",
             "DutModel.run", "GoldenModel.run", "Fuzzer.fuzz_one",
             "execute_batch", "run_campaign"):
    assert spans[name]["calls"] > 0, name
"""


def test_tracer_installs_and_records_spans():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")])
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
