"""Command-line interface: run and inspect simulations without code.

Usage (also ``python -m repro <command>``):

    python -m repro list-apps
    python -m repro describe [-n 64]
    python -m repro run barnes -n 16 --scale 0.5 [--tape] [--report FILE]
    python -m repro scaling specjbb2000 -n 1,8,32
    python -m repro latency equake --hops 1,3,8 -n 32
    python -m repro traffic swim -n 64
    python -m repro sweep barnes --grid link_latency=1,3,8 --jobs 4
    python -m repro conform --cases 500 --seed 0 [--faults] [--jobs 4]
    python -m repro conform --quick --source patterns --faults --no-cache
    python -m repro lint [--format json] [--out FILE]

``run --tape``, ``--report`` and ``--timeline`` switch the event log
on (``SystemConfig.event_log``): the TAPE violation profile and the
timeline are views over it.

Multi-run commands (``sweep``, ``conform``) fan their
independent runs out over worker processes (``--jobs``, default: all
cores) and memoize results in the content-addressed cache under
``.repro_cache/`` (``--no-cache`` to bypass); results are bit-identical
at any ``--jobs`` setting.

Every run is judged by the independent serializability oracle before
reporting results.  All commands exit nonzero with a one-line
diagnostic on bad arguments or failed runs; ``--debug`` re-raises the
underlying traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import difflib
import itertools
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import APP_PROFILES, ScalableTCCSystem, SystemConfig, app_workload
from repro.analysis import (
    format_breakdown_figure,
    format_table,
    format_traffic_figure,
    run_points,
)
from repro.core.result import ResultSummary
from repro.tracing import render_timeline, tape_report


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _grid_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if text in ("none", "None"):
        return None
    return text


def _grid_axis(text: str):
    """Parse one ``--grid field=v1,v2,...`` axis."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected field=v1,v2,..., got {text!r}"
        )
    key, _, values = text.partition("=")
    parsed = [_grid_value(part) for part in values.split(",") if part]
    if not parsed:
        raise argparse.ArgumentTypeError(f"no values for grid axis {key!r}")
    return key, parsed


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all cores; "
                             "1 = in-process, no pickling)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")


def _cache_from(args):
    """--no-cache -> None (bypass); otherwise the default on-disk cache."""
    return None if args.no_cache else True


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", "--processors", type=int, default=16,
                        help="processor count (default 16)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload volume multiplier (default 0.5)")
    parser.add_argument("--link-latency", type=int, default=3,
                        help="mesh cycles per hop (default 3)")
    parser.add_argument("--backend", choices=["scalable", "token"],
                        default="scalable", help="commit backend")
    parser.add_argument("--granularity", choices=["word", "line"],
                        default="word", help="speculative-state granularity")
    parser.add_argument("--write-through", action="store_true",
                        help="write-through commit (ablation)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the oracle's serializability check (faster)")


def _config_from(args) -> SystemConfig:
    return SystemConfig(
        n_processors=args.processors,
        link_latency=args.link_latency,
        commit_backend=args.backend,
        granularity=args.granularity,
        write_through_commit=args.write_through,
        seed=args.seed,
    )


def _check_app(name: str) -> str:
    if name not in APP_PROFILES:
        raise SystemExit(
            f"unknown application {name!r}; try: {', '.join(sorted(APP_PROFILES))}"
        )
    return name


def cmd_list_apps(args) -> int:
    rows = []
    for name, profile in sorted(APP_PROFILES.items()):
        rows.append([
            name,
            str(profile.total_transactions),
            str(profile.tx_instructions),
            f"{profile.shared_fraction:.2f}",
            f"{profile.write_shared_fraction:.2f}",
            str(profile.barrier_every or "-"),
        ])
    print(format_table(
        ["application", "transactions", "tx insts", "shared rd frac",
         "shared wr frac", "barrier every"],
        rows,
    ))
    return 0


def cmd_describe(args) -> int:
    print(SystemConfig(n_processors=args.processors).describe())
    return 0


def cmd_run(args) -> int:
    name = _check_app(args.app)
    config = _config_from(args)
    if args.timeline or args.tape or args.report:
        config = dataclasses.replace(config, event_log=True)
    system = ScalableTCCSystem(config)
    result = system.run(
        app_workload(name, scale=args.scale),
        verify=not args.no_verify,
    )
    summary = result.summary()
    print(f"{name} @ {config.n_processors} CPUs "
          f"({config.commit_backend} commit, {config.granularity} tracking)")
    print(f"  cycles       : {summary.cycles:,}")
    print(f"  transactions : {summary.committed_transactions} committed, "
          f"{summary.total_violations} violated")
    print(f"  instructions : {summary.committed_instructions:,}")
    print("  breakdown    : " + "  ".join(
        f"{k}={v * 100:.1f}%" for k, v in summary.breakdown_fractions().items()
    ))
    bpi = summary.bytes_per_instruction()
    print(f"  traffic      : {sum(bpi.values()):.3f} B/instr "
          f"(commit {bpi['commit']:.3f}, miss {bpi['miss']:.3f}, "
          f"wb {bpi['writeback']:.3f}, overhead {bpi['overhead']:.3f})")
    print(f"  tx size p90  : {summary.tx_size_p90:,.0f} inst; "
          f"wr-set {summary.write_set_p90_kb:.2f} KB, "
          f"rd-set {summary.read_set_p90_kb:.2f} KB; "
          f"{summary.dirs_per_commit_p90:.0f} dirs/commit")
    if args.tape:
        print()
        print(tape_report(system))
    if args.timeline:
        print()
        print(render_timeline(system.events, config.n_processors,
                              width=96, end_time=result.cycles))
    if args.report:
        from repro.analysis import render_report

        text = render_report(name, result, tape_report(system))
        with open(args.report, "w") as handle:
            handle.write(text + "\n")
        print(f"\nreport written to {args.report}")
    return 0


def cmd_scaling(args) -> int:
    name = _check_app(args.app)
    counts = args.counts
    config = _config_from(args)
    results, _ = run_points(
        {n: (name, dataclasses.replace(config, n_processors=n))
         for n in counts},
        scale=args.scale, verify=not args.no_verify,
    )
    series = {}
    speedups = {}
    baseline = results[counts[0]]
    for n, result in results.items():
        label = f"{name}@{n}"
        series[label] = result.breakdown_fractions()
        speedups[label] = result.speedup_over(baseline)
    print(format_breakdown_figure(
        f"{name}: scaling (normalized to {counts[0]} CPU(s))", series, speedups
    ))
    return 0


def cmd_latency(args) -> int:
    name = _check_app(args.app)
    config = _config_from(args)
    results, _ = run_points(
        {lat: (name, dataclasses.replace(config, link_latency=lat))
         for lat in args.hops},
        scale=args.scale, verify=not args.no_verify,
    )
    base = results[args.hops[0]].cycles
    rows = [
        [f"{lat} cy/hop", f"{result.cycles:,}", f"{result.cycles / base:.2f}x"]
        for lat, result in results.items()
    ]
    print(format_table(["link latency", "cycles", "slowdown"], rows))
    return 0


def cmd_conform(args) -> int:
    from repro.conform.harness import format_report, run_conform

    cases = 25 if args.quick else args.cases
    if cases < 1:
        raise SystemExit("conform: --cases must be >= 1")

    def progress(outcome):
        if args.verbose or not outcome.ok:
            marker = "ok  " if outcome.ok else "FAIL"
            print(f"  {marker} seed={outcome.seed} "
                  f"{outcome.n_processors}p/{outcome.transactions}tx "
                  f"{outcome.outcome} cycles={outcome.cycles}")

    report = run_conform(
        cases=cases, seed0=args.seed0, faults=args.faults,
        source=args.source, progress=progress, jobs=args.jobs, cache=_cache_from(args),
        shrink=not args.no_shrink, save_dir=args.save_failures,
    )
    print(format_report(report))
    if args.out:
        import json

        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.out}")
    return 0 if report["failed"] == 0 else 1


def cmd_lint(args) -> int:
    from repro.lint import run_lint
    from repro.lint.report import format_json, format_text

    result = run_lint(root=args.root)
    text = (format_json(result).rstrip("\n") if args.format == "json"
            else format_text(result, verbose=args.verbose))
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(format_json(result))
        print(f"json report written to {args.out}", file=sys.stderr)
    return 0 if result.ok else 1


_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SystemConfig))

#: The metric columns of a sweep row, after its grid axes.
_SWEEP_METRICS = (
    "cycles", "commits", "violations", "useful_frac", "commit_frac",
    "violation_frac", "bytes_per_instr",
)


def _sweep_row(overrides: Dict[str, Any],
               result: ResultSummary) -> Dict[str, Any]:
    """One grid point's overrides and the numbers a sweep reports."""
    fractions = result.breakdown_fractions()
    return {
        **overrides,
        "cycles": result.cycles,
        "commits": result.committed_transactions,
        "violations": result.total_violations,
        "useful_frac": round(fractions["useful"], 4),
        "commit_frac": round(fractions["commit"], 4),
        "violation_frac": round(fractions["violation"], 4),
        "bytes_per_instr": round(sum(result.bytes_per_instruction().values()), 4),
    }


def cmd_sweep(args) -> int:
    name = _check_app(args.app)
    grid = dict(args.grid or [])
    if not grid:
        raise SystemExit(
            "sweep: need at least one --grid field=v1,v2,... axis "
            "(e.g. --grid link_latency=1,3,8)"
        )
    # Reject unknown fields before anything runs, instead of the opaque
    # TypeError dataclasses.replace would raise.
    for key in grid:
        if key not in _CONFIG_FIELDS:
            hint = difflib.get_close_matches(key, _CONFIG_FIELDS, n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ValueError(
                f"sweep override {key!r} is not a SystemConfig field{suggestion}"
            )
    columns = (*grid, *_SWEEP_METRICS)
    if args.best is not None and args.best not in columns:
        raise ValueError(
            f"sweep --best {args.best!r} is not a column; "
            f"choose one of {', '.join(columns)}"
        )
    config = _config_from(args)
    combos = {
        values: dict(zip(grid, values))
        for values in itertools.product(*grid.values())
    }
    results, stats = run_points(
        {values: (name, dataclasses.replace(config, **overrides))
         for values, overrides in combos.items()},
        scale=args.scale, verify=not args.no_verify,
        jobs=args.jobs, cache=_cache_from(args),
    )
    rows = [_sweep_row(combos[values], result)
            for values, result in results.items()]
    headers = list(columns)
    print(format_table(headers, [[str(row[h]) for h in headers] for row in rows]))
    print(stats.describe())
    if args.best:
        best = min(rows, key=lambda row: row[args.best])
        overrides = {key: best[key] for key in grid}
        print(f"best {args.best}: {overrides} ({args.best}={best[args.best]})")
    if args.csv:
        with open(args.csv, "w") as handle:
            writer = csv.DictWriter(handle, fieldnames=headers)
            writer.writeheader()
            writer.writerows(rows)
        print(f"csv written to {args.csv}")
    return 0


def cmd_traffic(args) -> int:
    name = _check_app(args.app)
    config = _config_from(args)
    results, _ = run_points({name: (name, config)}, scale=args.scale,
                            verify=not args.no_verify)
    print(format_traffic_figure(
        f"{name} @ {config.n_processors} CPUs",
        {name: results[name].bytes_per_instruction()},
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable TCC simulator (HPCA 2007 reproduction)",
    )
    parser.add_argument("--debug", action="store_true",
                        help="re-raise errors with a full traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the application profiles") \
        .set_defaults(func=cmd_list_apps)

    p = sub.add_parser("describe", help="print the Table 2 machine description")
    p.add_argument("-n", "--processors", type=int, default=64)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("run", help="run one application once")
    p.add_argument("app")
    _add_machine_args(p)
    p.add_argument("--tape", action="store_true",
                   help="print the TAPE violation profile")
    p.add_argument("--report", metavar="FILE",
                   help="write a full markdown report to FILE")
    p.add_argument("--timeline", action="store_true",
                   help="render a per-processor ASCII timeline")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("scaling", help="run a processor-count sweep")
    p.add_argument("app")
    _add_machine_args(p)
    p.add_argument("--counts", dest="counts", type=_int_list,
                   default=[1, 8, 16], help="comma-separated CPU counts")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("latency", help="run a link-latency sweep (Figure 8)")
    p.add_argument("app")
    _add_machine_args(p)
    p.add_argument("--hops", type=_int_list, default=[1, 3, 8],
                   help="comma-separated cycles-per-hop values")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("traffic", help="report bytes/instruction (Figure 9)")
    p.add_argument("app")
    _add_machine_args(p)
    p.set_defaults(func=cmd_traffic)

    p = sub.add_parser(
        "sweep",
        help="Cartesian config sweep over one application "
             "(parallel + cached)",
    )
    p.add_argument("app")
    _add_machine_args(p)
    p.add_argument("--grid", action="append", type=_grid_axis,
                   metavar="FIELD=V1,V2,...",
                   help="one sweep axis (repeatable), e.g. "
                        "--grid link_latency=1,3,8")
    p.add_argument("--best", metavar="METRIC", default=None,
                   help="also print the point minimizing METRIC "
                        "(e.g. cycles)")
    p.add_argument("--csv", metavar="FILE", default=None,
                   help="write the sweep table to FILE as CSV")
    _add_runner_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "conform",
        help="differential conformance campaign: seeded random programs "
             "or TM patterns run on the full machine and diffed against "
             "the reference oracle (commit order, read witnesses, final "
             "memory)",
    )
    p.add_argument("--cases", type=int, default=200,
                   help="number of seeded cases to run (default 200)")
    p.add_argument("--seed", dest="seed0", type=int, default=0,
                   help="first case seed (case i uses seed+i)")
    p.add_argument("--source", choices=["program", "patterns"],
                   default="program",
                   help="program: seeded random programs on 2-8 CPUs "
                        "(default); patterns: hot-counter, list-set and "
                        "queue workloads on 4-8 CPUs, with the machine-wide "
                        "invariants checked between engine slices")
    p.add_argument("--faults", action="store_true",
                   help="compose each case with a seeded fault plan "
                        "(drops/dups/delays/reorders + node outages)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: 25 cases")
    p.add_argument("--verbose", action="store_true",
                   help="print every case, not just failures")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip counterexample shrinking on failure")
    p.add_argument("--save-failures", metavar="DIR",
                   default="conform_failures",
                   help="write shrunk counterexample files here "
                        "(default conform_failures/)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON campaign report to FILE "
                        "(e.g. CONFORM_report.json)")
    _add_runner_args(p)
    p.set_defaults(func=cmd_conform)

    p = sub.add_parser(
        "lint",
        help="static determinism & protocol-contract analysis "
             "(see docs/LINTING.md)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.add_argument("--root", metavar="DIR", default=None,
                   help="package directory to lint "
                        "(default: the installed repro package)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="also write the JSON report to FILE")
    p.add_argument("--verbose", action="store_true",
                   help="also list suppressed findings")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # Every operational failure — bad config values, a workload that
        # cannot complete, a watchdog-diagnosed stall — becomes a nonzero
        # exit with a one-line actionable message instead of a traceback.
        if args.debug:
            raise
        from repro.faults.watchdog import WatchdogStall

        if isinstance(exc, WatchdogStall):
            print(f"error: {exc}", file=sys.stderr)
            print("hint: the run stalled; the report above shows where "
                  "each processor and directory is stuck", file=sys.stderr)
        else:
            first_line = str(exc).splitlines()[0] if str(exc) else repr(exc)
            print(f"error: {type(exc).__name__}: {first_line}",
                  file=sys.stderr)
            print("hint: re-run with --debug for the full traceback",
                  file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
