#!/usr/bin/env python
"""Compare a fresh benchmark run against the committed baseline.

The CI benchmark-regression gate runs ``run_bench.py`` on the pull request,
then calls this script to compare the median throughput ``1e9 / median_ns``
per benchmark against the committed ``BENCH_throughput.json``.  A benchmark
regressing by more than the tolerance fails the gate::

    PYTHONPATH=src python benchmarks/run_bench.py --output current.json \\
        -k "golden_model or mabfuzz_iteration"
    python benchmarks/compare_bench.py \\
        --baseline BENCH_throughput.json --current current.json \\
        --tolerance 30 \\
        --benchmarks test_golden_model_run_throughput \\
                     test_mabfuzz_iteration_throughput

A Markdown comparison table is printed to stdout and, when
``$GITHUB_STEP_SUMMARY`` is set (or ``--summary PATH`` is given), appended
to the job summary.  Baselines travel with the repository, so they were
usually recorded on *different hardware* than the runner executing the
gate; the tolerance absorbs machine-to-machine variance, and a mismatched
``machine``/``cpu_count`` is called out in the table header.

The gate compares medians, not ``ops_per_second``: pytest-benchmark derives
that from the mean, and a few slow outlier rounds on a shared runner move
the mean far more than the median (Georges et al., OOPSLA 2007).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def load_summary(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"benchmark summary not found: {path}")
    except json.JSONDecodeError as error:
        raise SystemExit(f"unparsable benchmark summary {path}: {error}")


def median_ops(entry: dict) -> float:
    """Median throughput (operations per second) of one benchmark entry."""
    return 1e9 / float(entry["median_ns"])


def compare(baseline: dict, current: dict, names: list, tolerance_pct: float) -> tuple:
    """Return (markdown lines, {regressed name: human-readable reason})."""
    lines = [
        "| benchmark | baseline median ops/s | current median ops/s | change | verdict |",
        "|---|---:|---:|---:|---|",
    ]
    regressed = {}
    for name in names:
        base = baseline.get("benchmarks", {}).get(name)
        cur = current.get("benchmarks", {}).get(name)
        if base is None or cur is None:
            missing = "baseline" if base is None else "current run"
            lines.append(f"| {name} | - | - | - | MISSING from {missing} |")
            regressed[name] = f"missing from the {missing}"
            continue
        base_ops = median_ops(base)
        cur_ops = median_ops(cur)
        change_pct = 100.0 * (cur_ops - base_ops) / base_ops
        if change_pct < -tolerance_pct:
            verdict = f"REGRESSED (> {tolerance_pct:.0f}% slower)"
            regressed[name] = (
                f"{change_pct:+.1f}% median ops/s ({base_ops:,.2f} -> {cur_ops:,.2f}, "
                f"tolerance {tolerance_pct:.0f}%)"
            )
        else:
            verdict = "ok"
        lines.append(
            f"| {name} | {base_ops:,.2f} | {cur_ops:,.2f} | {change_pct:+.1f}% | {verdict} |"
        )
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed BENCH_throughput.json",
    )
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="summary produced by run_bench.py on this PR",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=30.0,
        help="allowed median ops/s regression in percent (default: 30)",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        required=True,
        help="benchmark names the gate enforces",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="also append the Markdown table to this file "
        "(default: $GITHUB_STEP_SUMMARY when set)",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        raise SystemExit("--tolerance must be >= 0")

    baseline = load_summary(args.baseline)
    current = load_summary(args.current)

    header = [
        "## Benchmark regression gate",
        f"Tolerance: {args.tolerance:.0f}% median ops/s regression.",
    ]
    for field in ("machine", "cpu_count", "python"):
        base_value, cur_value = baseline.get(field), current.get(field)
        if base_value != cur_value:
            header.append(
                f"> note: baseline {field} = `{base_value}`, runner {field} = "
                f"`{cur_value}` -- cross-machine comparison, tolerance absorbs "
                f"the variance."
            )
    table, regressed = compare(baseline, current, args.benchmarks, args.tolerance)
    report = "\n".join(header + [""] + table) + "\n"
    print(report)

    summary_path = args.summary
    if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary_path is not None:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(report + "\n")

    if regressed:
        # One GitHub error annotation per offender: the failing benchmark is
        # named on the PR itself, not buried in the job log.
        if os.environ.get("GITHUB_ACTIONS"):
            for name, reason in regressed.items():
                print(f"::error title=Benchmark regression::{name}: {reason}")
        for name, reason in regressed.items():
            print(f"FAIL: {name}: {reason}", file=sys.stderr)
        print(
            f"FAIL: {len(regressed)} benchmark(s) regressed or missing: "
            f"{', '.join(regressed)}",
            file=sys.stderr,
        )
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
