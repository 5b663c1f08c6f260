"""Command-line entry points.

Exit codes: 0 for success or a true verdict, 1 for a false verdict or a
law/oracle/mimicry violation, 2 for usage errors (including bad windows),
3 for unreadable or malformed input files. Windows are half-open A:B over
step indices.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from functools import cache

from .categories import (
    MimicryError,
    check_functor_laws,
    functor_from_trace,
    mimicry_functor,
)
from .classify import WindowError, activity, brute_force_classify, classify
from .evolution import Trace
from .io import (
    load_config,
    load_mapping,
    mapping_components,
    mapping_object_map,
    parse_window,
    read_trace,
    render_report,
    write_trace,
)
from .scenarios import SCENARIO_NAMES, ScenarioConfig, make_scenario
from .universe import ConstructionError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindsets",
        description=(
            "Generate, classify, and check finite-universe traces. "
            "Step windows are half-open and written A:B."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="generate a scenario trace file")
    run.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--config", default=None, help="flat key=value config file")
    run.add_argument(
        "--steps", type=int, default=200, help="step count for the off scenario"
    )
    run.add_argument("--out", required=True, help="trace file to write")

    cls = sub.add_parser("classify", help="witness report and verdict for a trace")
    cls.add_argument("--trace", required=True)
    cls.add_argument("--window", type=parse_window, default=None, help="half-open A:B")

    act = sub.add_parser("activity", help="boundary-traffic metric for a trace")
    act.add_argument("--trace", required=True)
    act.add_argument("--window", type=parse_window, default=None, help="half-open A:B")
    act.add_argument("--mode", choices=("step", "element"), default="step")

    fun = sub.add_parser("functor-check", help="functor laws for a trace's functor")
    fun.add_argument("--trace", required=True)

    mim = sub.add_parser("mimic-check", help="validate a mimicry mapping file")
    mim.add_argument("--source", required=True, help="source trace file")
    mim.add_argument("--target", required=True, help="target trace file")
    mim.add_argument("--map", required=True, help="mimicry mapping file")

    orc = sub.add_parser("oracle-check", help="compare classify with the oracle")
    orc.add_argument("--trace", required=True)
    orc.add_argument("--window", type=parse_window, default=None, help="half-open A:B")

    rep = sub.add_parser("report", help="structure and phase tables for a trace")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--format", choices=("md",), default="md")

    return parser


def _full_window(t: Trace, window) -> tuple[int, int]:
    return window if window is not None else (0, t.n_steps)


def _cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    bundle = make_scenario(args.scenario, cfg, steps=args.steps)
    write_trace(bundle.trace, args.out)
    print(f"wrote {args.out}: scenario {bundle.name}, {bundle.trace.n_steps} steps")
    return EXIT_OK


def _load(args, path) -> Trace:
    """`read_trace`, then the freeze `main` owns, if it does (``args.freeze``)."""
    t = read_trace(path)
    if args.freeze:
        gc.freeze()
    return t


def _cmd_classify(args) -> int:
    t = _load(args, args.trace)
    report = classify(t, _full_window(t, args.window))
    print(render_report(report).body, end="")
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_activity(args) -> int:
    t = _load(args, args.trace)
    score = activity(t, _full_window(t, args.window), mode=args.mode)
    print(render_report(score).body, end="")
    return EXIT_OK


def _cmd_functor_check(args) -> int:
    t = _load(args, args.trace)
    report = check_functor_laws(functor_from_trace(t))
    print(render_report(report).body, end="")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_mimic_check(args) -> int:
    # every file is read and checked before either functor is built
    source = _load(args, args.source)
    target = _load(args, args.target)
    data = load_mapping(args.map)
    object_map = mapping_object_map(data, source.n_steps + 1)
    components = mapping_components(data)
    source_cat = functor_from_trace(source)
    target_cat = functor_from_trace(target)
    try:
        functor = mimicry_functor(source_cat, target_cat, object_map, components)
    except MimicryError as exc:
        print(f"mapping rejected: {exc}")
        return EXIT_NEGATIVE
    report = check_functor_laws(functor)
    print(render_report(report).body, end="")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_oracle_check(args) -> int:
    t = _load(args, args.trace)
    window = _full_window(t, args.window)
    fast = classify(t, window)
    oracle = brute_force_classify(t, window)
    print(render_report((fast, oracle)).body, end="")
    agree = fast.verdict == oracle.verdict and all(
        fast.steps_with(c) == oracle.steps_with(c)
        for c in ("input", "processing", "output")
    )
    return EXIT_OK if agree else EXIT_NEGATIVE


def _cmd_report(args) -> int:
    t = _load(args, args.trace)
    print(render_report(t).body, end="")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "classify": _cmd_classify,
    "activity": _cmd_activity,
    "functor-check": _cmd_functor_check,
    "mimic-check": _cmd_mimic_check,
    "oracle-check": _cmd_oracle_check,
    "report": _cmd_report,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call shares: building it costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; return its exit code.

    A loaded trace holds objects the cyclic collector would pass over again
    and again while the command builds its answer. So after each read the
    process's objects are frozen out of its passes (`gc.freeze`) until the
    command ends, however it ends; but only if nothing was frozen when
    `main` was called, so a caller's own freeze is left as it was. The
    library's functions never freeze.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.freeze = owner = gc.get_freeze_count() == 0
    try:
        return _COMMANDS[args.command](args)
    except WindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        if owner:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
