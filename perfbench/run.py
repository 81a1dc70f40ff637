"""redload benchmark: trace workloads through the `analyze` and `report`
commands, timed end to end, with a separate traced run for per-layer
numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout; the program is taken from `src/`. One run:

1. Set-up, in this process: generate the workload's trace from the seed
   and encode it to a file, several times (`setup_s` is their median, in
   reference seconds).
2. Correctness reference: SHA-256 digests of the trace, the profile, and
   the text and JSON reports for (workload, seed). Seeds listed in
   `references.json` were checked once against the brute-force oracle in
   `tests/oracles.py`; any other seed is checked against it here, before
   measuring, and remembered under `.bench_build/`.
3. Measurement, a closed loop with one client: each command runs in a
   fresh child process, one at a time, until `--seconds` have passed and
   at least MIN_REPS repetitions are done. Every output is hashed and
   compared with the reference; a mismatch or a non-zero exit is a failed
   operation.
   - `--trace 0`: `analyze`, then `report --top 20` (repeated until
     REPORT_MIN_S have passed, as one report is short), untraced; prints
     the end-to-end metrics (medians over repetitions). Times are in
     reference seconds, see below.
   - `--trace 1`: an untraced `analyze`, then `analyze` and `report` under
     `tracer.py`; prints the per-layer metrics (medians) and the tracing
     overhead.

Reference seconds. The speed of a shared host can drift by 1.4x for
seconds to minutes (measured on a 2-vCPU Xeon VM), and medians over one
run do not average that out. So with `--trace 0` the fixed program
`calibrate.py` runs as a child right after each set-up and between each
`analyze` and the `report`s that follow it, and each of those times is
scaled by REFERENCE_S over the calibration next to it: the time the work
would take on a host where `calibrate.py` takes REFERENCE_S seconds.
The calibration never runs program code, so a change to the program moves
these times as it moves wall times. The unscaled wall times are printed
as comments and kept in the results record.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller record (run
metadata, every sample, spans) goes to `.bench_build/perfbench/results/`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"
VERIFIED = WORK / "verified.json"   # seeds oracle-checked in this checkout
CALIBRATE = HERE / "calibrate.py"
REFERENCE_S = 0.30      # calibrate.py's time on the host of reference

MIN_REPS = 3            # measured repetitions per untraced run, at least
MIN_SETUPS = 4          # set-ups per run, at least ...
SETUP_MIN_S = 2.0       # ... and until this much set-up time has passed
MAX_SETUPS = 15
REPORT_MIN_S = 0.3      # reports per analyze: at least one, and this long
TOP = "20"

clock = time.perf_counter


def metric_units():
    """(end-to-end units, per-layer units) by metric name, from
    BENCHMARK.json, so the printed set is the declared set."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def sha256(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def median(values):
    return statistics.median(values) if values else 0.0


def in_reference_seconds(wall, calibration):
    """A wall time scaled by REFERENCE_S over the calibration run next
    to it."""
    return wall * REFERENCE_S / calibration


class Launcher:
    """The launcher.py process that starts every measured command."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        # Commands load the program from cached bytecode, as an installed
        # package does; the first one writes the cache.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv, stdout_path=None):
        """Run `python3 ARGV...`; returns (wall s, peak RSS MB, exit code)."""
        request = {"argv": [sys.executable, *map(str, argv)],
                   "stdout": str(stdout_path) if stdout_path else None}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        reply = json.loads(reply)
        return reply["wall"], reply["rss_kb"] / 1024, reply["code"]

    def close(self, ok=True):
        if not ok:
            self.proc.terminate()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(ok=exc_type is None)


class Spans:
    """Coarse spans with parent links, kept in memory until the end."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end):
        sid = f"s{len(self.spans)}"
        self.spans.append({"id": sid, "parent": None, "name": name,
                           "start": start, "end": end})
        return sid

    def add_child_spans(self, parent, stats):
        """Spans recorded inside a traced child (same monotonic clock),
        re-parented under the span of the command that ran them."""
        for local, local_parent, name, start, end in stats["spans"]:
            self.spans.append({
                "id": f"{parent}.{local}",
                "parent": (parent if local_parent is None
                           else f"{parent}.{local_parent}"),
                "name": name, "start": start, "end": end})


class _TimedIter:
    """Iterator wrapper adding the time spent producing items to
    `seconds`; splits set-up into generate and encode."""

    def __init__(self, items):
        self.items = iter(items)
        self.seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        start = clock()
        try:
            return next(self.items)
        finally:
            self.seconds += clock() - start


def same_profile(expected, actual):
    """Equal totals, thread count and rows; analysis settings ignored."""
    return (expected.totals == actual.totals
            and expected.thread_count == actual.thread_count
            and expected.temporal_pairs == actual.temporal_pairs
            and expected.objects == actual.objects
            and expected.spatial_pairs == actual.spatial_pairs)


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed, toy, trace, launcher, corrupt=False):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.launcher = launcher
        self.corrupt = corrupt      # self-test: alter every profile written
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.spans = Spans()
        tag = f"{workload.name}-seed{seed}" + ("-toy" if toy else "")
        self.dir = WORK / tag
        self.dir.mkdir(parents=True, exist_ok=True)
        self.trace = self.dir / "trace.lrt"
        self.profile = self.dir / "profile.json"
        self.report = self.dir / "report.txt"
        self.report_json = self.dir / "report.json"
        self.stats = self.dir / "stats.json"
        self.results = WORK / "results" / f"{tag}-trace{int(trace)}.json"

    # ---------------------------------------------------------- commands

    def analyze_cmd(self):
        return ["-m", "redload.cli", "analyze", self.trace,
                "-o", self.profile, *self.workload.analyze_args]

    def report_cmd(self, fmt="text"):
        return ["-m", "redload.cli", "report", self.profile, "--top", TOP,
                "--format", fmt]

    def command(self, name, argv, stdout_path=None):
        """Run one command as a measured child, recording its span."""
        start = clock()
        wall, rss, code = self.launcher.run(argv, stdout_path)
        sid = self.spans.add(name, start, start + wall)
        if name.startswith("analyze") and self.corrupt and code == 0:
            data = self.profile.read_bytes()
            self.profile.write_bytes(data.replace(
                b'"total_instances": ', b'"total_instances": 1', 1))
        return wall, rss, code, sid

    def calibrate(self):
        """Run calibrate.py once; returns its wall time."""
        wall, _, code, _ = self.command("calibrate", [CALIBRATE])
        if code != 0:
            raise RuntimeError(f"calibrate.py exited with {code}")
        return wall

    def check(self, name, code, path, expected):
        """Count one operation; it fails on a non-zero exit or an output
        whose digest differs from the reference."""
        self.attempted += 1
        digest = sha256(path) if code == 0 else None
        if code != 0 or digest != expected:
            self.failed += 1
            self.failures.append(f"{name}: exit {code}, digest {digest}")

    # ------------------------------------------------------------ set-up

    def setup(self, split):
        """Generate and encode the trace once; returns
        (seconds, generate seconds or None, bytes written)."""
        from redload.trace import write_trace
        start = clock()
        events, source_map = self.workload.build(self.seed, self.toy)
        generate_s = None
        if split:
            generate_s = clock() - start
            events = _TimedIter(events)
        with open(self.trace, "wb") as f:
            nbytes = write_trace(events, source_map, f)
        end = clock()
        self.spans.add("setup", start, end)
        if split:
            generate_s += events.seconds
        return end - start, generate_s, nbytes

    # ------------------------------------------------------- correctness

    def reference(self):
        """The reference record for this trace: committed, remembered
        from an earlier run in this checkout, or checked now."""
        key = self.workload.name + ("@toy" if self.toy else "")
        for source in (REFERENCES, VERIFIED):
            ref = load_json(source).get(key, {}).get(str(self.seed))
            if ref is not None:
                return ref
        ref = self.verify()
        if ref is not None:
            verified = load_json(VERIFIED)
            verified.setdefault(key, {})[str(self.seed)] = ref
            tmp = VERIFIED.with_suffix(".tmp")
            tmp.write_text(json.dumps(verified, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
            tmp.replace(VERIFIED)
        return ref

    def verify(self):
        """Check this trace's profile against the brute-force oracle;
        returns its reference record, or None when the profile differs
        from the oracle's or a command fails."""
        from redload import profiles
        from redload.trace import LOAD
        if str(TESTS) not in sys.path:
            sys.path.insert(0, str(TESTS))
        from oracles import expected_analysis

        from cases import monitored_events

        codes = [self.command("analyze (oracle check)",
                              self.analyze_cmd())[2],
                 self.command("report (oracle check)", self.report_cmd(),
                              self.report)[2],
                 self.command("report json (oracle check)",
                              self.report_cmd("json"), self.report_json)[2]]
        self.attempted += len(codes)
        if any(codes):
            self.failed += sum(code != 0 for code in codes)
            self.failures.append(f"oracle check: exit codes {codes}")
            return None

        counts = {"events": 0, "loads": 0}

        def counted(events):
            for ev in events:
                counts["events"] += 1
                counts["loads"] += ev.kind == LOAD
                yield ev

        events, source_map = self.workload.build(self.seed, self.toy)
        expected = expected_analysis(
            monitored_events(self.workload, counted(events)), source_map)
        if not same_profile(expected.profile, profiles.load(self.profile)):
            self.failed += 1
            self.failures.append("oracle check: profile differs")
            return None
        return {"events": counts["events"], "loads": counts["loads"],
                "trace_bytes": self.trace.stat().st_size,
                "trace": sha256(self.trace),
                "profile": sha256(self.profile),
                "report": sha256(self.report),
                "report_json": sha256(self.report_json)}

    # ------------------------------------------------------- measurement

    def end_to_end(self, ref, seconds):
        samples = {name: [] for name in (
            "analyze_s", "analyze_wall_s", "peak_rss_mb", "calibrate_s",
            "report_s", "report_wall_s", "report_peak_rss_mb")}
        deadline = clock() + seconds
        while len(samples["analyze_s"]) < MIN_REPS or clock() < deadline:
            wall, rss, code, _ = self.command("analyze", self.analyze_cmd())
            self.check("analyze", code, self.profile, ref["profile"])
            calibration = self.calibrate()
            samples["calibrate_s"].append(calibration)
            samples["analyze_wall_s"].append(wall)
            samples["analyze_s"].append(in_reference_seconds(wall,
                                                             calibration))
            samples["peak_rss_mb"].append(rss)

            report_s = 0.0
            while report_s < REPORT_MIN_S:
                wall, rss, code, _ = self.command(
                    "report", self.report_cmd(), self.report)
                self.check("report", code, self.report, ref["report"])
                report_s += wall
                samples["report_wall_s"].append(wall)
                samples["report_s"].append(in_reference_seconds(
                    wall, calibration))
                samples["report_peak_rss_mb"].append(rss)
        code = self.command("report json", self.report_cmd("json"),
                            self.report_json)[2]
        self.check("report json", code, self.report_json, ref["report_json"])
        metrics = {name: median(samples[name]) for name in
                   ("analyze_s", "report_s", "peak_rss_mb",
                    "report_peak_rss_mb")}
        metrics["events_per_s"] = ref["events"] / metrics["analyze_s"]
        return metrics, samples

    def traced(self, ref, seconds):
        untraced_s, traced_s, layer_samples, share_samples = [], [], {}, []
        deadline = clock() + seconds
        while not traced_s or clock() < deadline:
            wall, _, code, _ = self.command("analyze", self.analyze_cmd())
            self.check("analyze", code, self.profile, ref["profile"])
            untraced_s.append(wall)

            for name, argv, out, expected in (
                    ("analyze", self.analyze_cmd(), self.profile,
                     ref["profile"]),
                    ("report", self.report_cmd(), self.report,
                     ref["report"])):
                self.stats.unlink(missing_ok=True)
                wall, _, code, sid = self.command(
                    name + " (traced)",
                    [HERE / "tracer.py", self.stats, *argv[2:]],
                    None if name == "analyze" else out)
                self.check(name + " (traced)", code, out, expected)
                stats = load_json(self.stats)
                if not stats:
                    continue
                self.spans.add_child_spans(sid, stats)
                for metric, value in stats["metrics"].items():
                    layer_samples.setdefault(metric, []).append(value)
                if name == "analyze":
                    traced_s.append(wall)
                    share_samples.append(shares(stats))
            if not traced_s:
                break       # the traced analyze failed; already counted
        metrics = {name: median(values)
                   for name, values in layer_samples.items()}
        metrics["tracing.analyze_s"] = median(traced_s)
        metrics["tracing.overhead_s"] = median(traced_s) - median(untraced_s)
        samples = {"untraced_analyze_s": untraced_s,
                   "traced_analyze_s": traced_s, **layer_samples}
        share = {k: median([s[k] for s in share_samples])
                 for k in (share_samples[0] if share_samples else ())}
        return metrics, samples, share


def shares(stats):
    """Self-time shares of one traced analyze, over the command's time
    inside its process: the figures behind each workload's `why`."""
    m = stats["metrics"]
    total = stats["funcs"]["cli.main"][1]
    detect = sum(m[f"{layer}.self_s"] for layer in
                 ("cct", "shadow", "temporal", "spatial", "scope"))
    profile = sum(m[f"profiles.{step}_s"] for step in
                  ("canonicalize", "merge", "to_json", "save"))
    return {"decode+engine": (m["trace.decode_s"] + m["engine.self_s"]) / total,
            "cct+shadow+temporal+spatial+scope": detect / total,
            "profiles": profile / total}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    """HEAD of the checkout, read from `.git` without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload_name, seed, seconds, trace, toy=False, corrupt=False):
    """One benchmark run; returns (result line, full record)."""
    import cases
    workload = cases.WORKLOADS[workload_name]
    e2e_units, layer_units = metric_units()
    units = layer_units if trace else e2e_units

    with Launcher() as launcher:
        bench = Run(workload, seed, toy, trace, launcher, corrupt)
        setups = []
        calibrations = []
        while len(setups) < MIN_SETUPS or (
                sum(s[0] for s in setups) < SETUP_MIN_S
                and len(setups) < MAX_SETUPS):
            setups.append(bench.setup(split=bool(trace)))
            if not trace:
                calibrations.append(bench.calibrate())

        ref = bench.reference()
        correct = ref is not None and sha256(bench.trace) == ref["trace"]
        metrics, samples, share = {}, {}, {}
        if not correct:
            bench.failures.append("no oracle-checked reference for the trace")
        elif trace:
            metrics, samples, share = bench.traced(ref, seconds)
            metrics["workloads.generate_s"] = median([s[1] for s in setups])
            metrics["trace.encode_s"] = median([s[0] - s[1] for s in setups])
            metrics["trace.bytes"] = setups[0][2]
        else:
            metrics, samples = bench.end_to_end(ref, seconds)
            samples["setup_calibrate_s"] = calibrations
            samples["setup_s"] = [in_reference_seconds(s[0], calibration)
                                  for s, calibration in zip(setups,
                                                            calibrations)]
            metrics["setup_s"] = median(samples["setup_s"])
        samples["setup_wall_s"] = [s[0] for s in setups]

    if bench.failed == 0 and correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    line = {"correct": correct and bench.failed == 0,
            "attempted": max(bench.attempted, 1),
            "failed": bench.failed if bench.attempted else 1,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units if name in metrics}}
    ref = ref or {}
    record = {
        "meta": {"workload": workload_name, "seed": seed, "toy": toy,
                 "trace": trace, "seconds": seconds,
                 "python": platform.python_version(),
                 "nproc": os.cpu_count(), "cpu": cpu_model(),
                 "commit": git_commit(),
                 "events": ref.get("events"), "loads": ref.get("loads"),
                 "trace_bytes": ref.get("trace_bytes"),
                 "profile_bytes": (bench.profile.stat().st_size
                                   if bench.profile.exists() else None)},
        "result": line, "failures": bench.failures, "shares": share,
        "samples": samples, "spans": bench.spans.spans}
    bench.results.parent.mkdir(parents=True, exist_ok=True)
    bench.results.write_text(json.dumps(record, indent=1) + "\n",
                             encoding="utf-8")
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "redload" / "cli.py").is_file():
        print(f"perfbench: no redload sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cases
    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(cases.WORKLOADS)}")

    line, record = run(args.workload, args.seed, args.seconds, args.trace)
    print("# run " + json.dumps(record["meta"], sort_keys=True))
    for name, m in line["metrics"].items():
        print(f"# {name:<28} {m['value']:>16.6g} {m['unit']}")
    for name, values in record["samples"].items():
        if name.endswith(("_wall_s", "calibrate_s")):
            print(f"# {name:<28} {median(values):>16.6g} s, median of "
                  f"{len(values)}, unscaled")
    for name, value in record["shares"].items():
        print(f"# share of traced analyze, {name:<34} {value:.3f}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
