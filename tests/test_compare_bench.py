"""Tests of the CI benchmark-regression gate (benchmarks/compare_bench.py)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench",
    Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _summary(**medians_ns):
    """A BENCH_throughput.json-shaped summary; ops/s deliberately skewed.

    ``ops_per_second`` is 1/mean, which outlier rounds drag down; the
    entries below give it a value that would flip every verdict, so the
    tests only pass if the gate reads the medians.
    """
    return {"benchmarks": {
        name: {"median_ns": median, "mean_ns": 10 * median,
               "ops_per_second": 1e8 / median}
        for name, median in medians_ns.items()}}


def test_regression_beyond_tolerance_fails():
    baseline = _summary(bench=1_000_000)        # 1000 ops/s
    current = _summary(bench=1_500_000)         # 667 ops/s: -33%
    lines, regressed = compare_bench.compare(baseline, current, ["bench"], 30.0)
    assert set(regressed) == {"bench"}
    assert "-33.3% median ops/s" in regressed["bench"]
    assert "REGRESSED" in lines[-1]


def test_slowdown_within_tolerance_passes():
    baseline = _summary(bench=1_000_000)
    current = _summary(bench=1_250_000)         # -20%
    _, regressed = compare_bench.compare(baseline, current, ["bench"], 30.0)
    assert regressed == {}


def test_improvement_passes():
    baseline = _summary(bench=1_000_000)
    current = _summary(bench=500_000)           # twice as fast
    lines, regressed = compare_bench.compare(baseline, current, ["bench"], 30.0)
    assert regressed == {}
    assert "+100.0%" in lines[-1] and lines[-1].endswith("| ok |")


def test_gate_reads_medians_not_mean_derived_ops():
    # Same median, but the current run's mean (and so ops_per_second)
    # is ruined by outliers: the median gate must not flag it.
    baseline = _summary(bench=1_000_000)
    current = _summary(bench=1_000_000)
    current["benchmarks"]["bench"]["ops_per_second"] = 1.0
    _, regressed = compare_bench.compare(baseline, current, ["bench"], 30.0)
    assert regressed == {}


def test_benchmark_missing_from_either_file_fails():
    baseline = _summary(old_only=1_000_000, both=1_000_000)
    current = _summary(new_only=1_000_000, both=1_000_000)
    lines, regressed = compare_bench.compare(
        baseline, current, ["old_only", "new_only", "both"], 30.0)
    assert regressed == {"old_only": "missing from the current run",
                         "new_only": "missing from the baseline"}
    assert any("MISSING from current run" in line for line in lines)
    assert any("MISSING from baseline" in line for line in lines)
