"""Record one benchmark point: every workload of BENCHMARK.json on a fixed
seed, written to BENCH_<n>.json at the repository root.

    python3 tools/record_bench.py                    # this checkout
    python3 tools/record_bench.py --checkout DIR -o BENCH_1.json

Each workload runs as `python3 perfbench/run.py --workload W --seed 7
--seconds 22 --trace 0` inside the checkout; its last output line (the
result: metrics, failed, attempted) goes into the file with the seed, the
checkout's commit (with "-dirty" when it has uncommitted changes), the
Python version and the CPU count. Seed 7 has committed reference digests
and was not used to tune the program. A full run takes about five minutes.
Standard library only.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

SEED = 7
SECONDS = 22
ROOT = Path(__file__).resolve().parent.parent


def next_output():
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def run_workload(checkout, workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository to measure (default: this one)")
    parser.add_argument("-o", "--output", type=Path, default=None,
                        help="default: the next free BENCH_<n>.json here")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    output = args.output or next_output()

    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    results = {}
    for workload in (w["name"] for w in declared["workloads"]):
        print(f"record_bench: {workload}", file=sys.stderr)
        results[workload] = run_workload(checkout, workload)
    # The commit's hash, with "-dirty" when tracked files differ from it.
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=checkout, capture_output=True, text=True).stdout.strip()
    record = {"seed": SEED, "seconds": SECONDS, "commit": commit or None,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "workloads": results}
    output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"record_bench: wrote {output}", file=sys.stderr)
    failed = sum(r["failed"] for r in results.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
