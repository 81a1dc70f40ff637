"""Command line interface: gen, analyze, merge, report."""

import argparse
import json
import signal
import sys

from . import profiles, workloads
from .engine import AnalysisConfig, analyze_path
from .errors import RedloadError
from .output import replacing
from .report import DEFAULT_TOP, report_json, report_text
from .sampling import (DEFAULT_WINDOW_DISABLE, DEFAULT_WINDOW_ENABLE,
                       SamplingConfig)
from .temporal import DEFAULT_EPSILON
from .trace import write_text_trace, write_trace


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="redload",
        description="Trace-driven profiler for temporal and spatial "
                    "redundant memory loads.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("--scenario", required=True,
                     choices=workloads.scenario_names())
    gen.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="scenario parameter override")
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--text", action="store_true",
                     help="write the text form instead of binary")

    an = sub.add_parser("analyze", help="profile a trace file")
    an.add_argument("trace")
    an.add_argument("-o", "--output", required=True)
    an.add_argument("--no-sampling", action="store_true",
                    help="monitor every load")
    an.add_argument("--window-enable", type=int, default=None,
                    metavar="N", help=f"monitored instructions per window "
                                      f"(default {DEFAULT_WINDOW_ENABLE})")
    an.add_argument("--window-disable", type=int, default=None,
                    metavar="N", help=f"unmonitored instructions per window "
                                      f"(default {DEFAULT_WINDOW_DISABLE})")
    an.add_argument("--approx-epsilon", type=float, default=DEFAULT_EPSILON,
                    help="relative FP tolerance (default %(default)s)")

    mg = sub.add_parser("merge", help="coalesce profiles")
    mg.add_argument("profiles", nargs="+")
    mg.add_argument("-o", "--output", required=True)

    rp = sub.add_parser("report", help="render a ranked redundancy report")
    rp.add_argument("profile")
    rp.add_argument("--top", type=int, default=DEFAULT_TOP)
    rp.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise RedloadError(f"--param expects KEY=VALUE, got {pair!r}")
        params[key] = value
    return params


def _cmd_gen(args):
    scenario = workloads.Scenario(args.scenario, _parse_params(args.param))
    events, source_map = workloads.generate(scenario)
    write, mode, encoding = ((write_text_trace, "x", "utf-8") if args.text
                             else (write_trace, "xb", None))
    with replacing(args.output, mode, encoding) as f:
        write(events, source_map, f)
    return 0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _cmd_analyze(args):
    if args.no_sampling:
        if args.window_enable is not None or args.window_disable is not None:
            raise RedloadError(
                "--no-sampling conflicts with --window-enable/--window-disable")
        sampling = SamplingConfig.disabled()
    else:
        sampling = SamplingConfig(
            window_enable=(DEFAULT_WINDOW_ENABLE if args.window_enable is None
                           else args.window_enable),
            window_disable=(DEFAULT_WINDOW_DISABLE
                            if args.window_disable is None
                            else args.window_disable))
    config = AnalysisConfig(sampling=sampling,
                            approx_epsilon=args.approx_epsilon)
    profile = analyze_path(args.trace, config)
    profiles.save(profile, args.output)
    return 0


def _cmd_merge(args):
    # Each input is folded into the sum as it is read.
    merged = profiles.merge_all(map(profiles.load, args.profiles))
    profiles.save(merged, args.output)
    return 0


def _cmd_report(args):
    profile = profiles.load(args.profile)
    if args.format == "json":
        json.dump(report_json(profile, args.top), sys.stdout, indent=1,
                  sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(report_text(profile, args.top))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "merge": _cmd_merge,
    "report": _cmd_report,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    # gen, analyze and merge write their output beside it and rename it
    # over it once whole; a SIGTERM becomes SystemExit, so that a killed
    # run removes what it had written.
    on_term = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return _COMMANDS[args.command](args)
    except (RedloadError, OSError) as exc:
        print(f"redload {args.command}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, on_term)


if __name__ == "__main__":
    sys.exit(main())
