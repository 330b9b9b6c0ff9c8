"""Record the simulated statistics every workload must repeat.

For every workload and every seed asked for, runs one round
(``perfbench/round.py``) and stores the facts ``workloads.SIMULATED`` names
in ``perfbench/digests.json``, which ``run.py`` checks every round against:
the result digest, coverage points, detected (processor, bug) pairs and
tests-to-detect of paper-campaign and trap-csr, and the digest of
fleet-grid's check grid (only that grid runs for fleet-grid).  Re-record
only when a change is *meant* to alter simulated results::

    python3 perfbench/record_digests.py --seeds 0-31 --tuned-seed 1 --held-out-seed 23
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from run import DIGESTS, WORK_ROOT  # noqa: E402
from workloads import SIMULATED  # noqa: E402

#: rounds recorded at once, one interpreter each.
JOBS = 2


def parse_seeds(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def record(workload: str, seed: int, scratch: str):
    work_dir = os.path.join(scratch, f"{workload}-{seed}")
    out = work_dir + ".json"
    check_only = ["--check-only"] if workload == "fleet-grid" else []
    subprocess.run([sys.executable, os.path.join(_HERE, "round.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--work-dir", work_dir, "--out", out,
                    "--spawned-at", repr(time.monotonic()), *check_only], check=True)
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    if result["failures"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failures']}")
    return workload, seed, {key: result[key] for key in SIMULATED[workload]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--tuned-seed", type=int, required=True,
                        help="the seed the benchmark was tuned on")
    parser.add_argument("--held-out-seed", type=int, required=True,
                        help="a seed kept out of tuning, to re-check gain claims on")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    for seed in (args.tuned_seed, args.held_out_seed):
        if seed not in seeds:
            parser.error(f"seed {seed} is not in --seeds")
    recorded = {workload: {} for workload in SIMULATED}
    scratch = os.path.join(WORK_ROOT, "record")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            jobs = [pool.submit(record, workload, seed, scratch)
                    for seed in seeds for workload in SIMULATED]
            for job in jobs:
                workload, seed, facts = job.result()
                recorded[workload][str(seed)] = facts
                print(f"{workload} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # One line per (workload, seed), so a re-recording diffs readably.
    blocks = []
    for workload, by_seed in recorded.items():
        lines = [f"  {json.dumps(seed)}: {json.dumps(facts, sort_keys=True)}"
                 for seed, facts in sorted(by_seed.items(), key=lambda kv: int(kv[0]))]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n }")
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        handle.write(f'{{"tuned_seed": {args.tuned_seed}, '
                     f'"held_out_seed": {args.held_out_seed}, "workloads": {{\n'
                     + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
