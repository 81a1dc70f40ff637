"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that
- every workload completes, untraced and traced, with no failed operation;
- each run's result line has exactly the keys `correct`, `attempted`,
  `failed` and `metrics`, and every metric that BENCHMARK.json declares
  for its mode, with the declared unit;
- a deliberately altered profile is counted as a failed operation, so the
  correctness gate can fail;
- in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.
Exits 0 when all hold. Toy traces are checked against the oracle on
first use, like any new seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run as bench  # noqa: E402

SEED = 1
SECONDS = 0.5
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_line(label, line, units, problems):
    if set(line) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        problems.append(f"{label}: correct={line['correct']} "
                        f"attempted={line['attempted']} "
                        f"failed={line['failed']}")
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(got) & set(units) if got[n] != units[n])
        problems.append(f"{label}: missing {missing}, extra {extra}, "
                        f"wrong units {wrong}")
    json.dumps(line)    # the line must be plain JSON


def check_bare_checkout(problems):
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mixed_rows",
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare checkout: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()!r}")
    shutil.rmtree(bare)


def main():
    e2e_units, layer_units = bench.metric_units()
    problems = []
    for name in cases.WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            line, _ = bench.run(name, SEED, SECONDS, trace, toy=True)
            check_line(f"{name} --trace {trace}", line, units, problems)
            print(f"ok {name} --trace {trace}: {line['attempted']} ops",
                  flush=True)

    line, record = bench.run("mixed_rows", SEED, SECONDS, 0, toy=True,
                             corrupt=True)
    if line["correct"] or line["failed"] == 0:
        problems.append("altered profile was not counted as failed")
    else:
        print(f"ok altered profile caught: {line['failed']} of "
              f"{line['attempted']} ops failed", flush=True)

    check_bare_checkout(problems)
    if not problems:
        print("ok bare checkout exits non-zero without a result")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
