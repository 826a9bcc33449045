"""Command-line entry point.

    rrbandit toy   [spec.ini] [--set run.seeds=0..19 ...]
    rrbandit pqc   [spec.ini] [--sizes 4,6,8] [--optimizer rr_powell] ...
    rrbandit qaoa  [spec.ini] ...
    rrbandit bounds [spec.ini] [--instances wedge,path.txt] ...

Spec files are INI with [run], [instance] and [optimizer] sections; every
key can be overridden with --set section.key=value. Shortcut flags cover
the common [run] keys. Exit code 0 on success, 2 on configuration,
parse or file errors. Every optimizer and instance setting is checked
before its value is used, so any other exception is a program error: it
propagates with its traceback and a non-zero exit code.
"""

import argparse
import sys

from .boundsio import run_bounds
from .config import ConfigError, load_spec, parse_overrides
from .toy import run_toy
from .vqa import run_vqa

_RUN_SHORTCUTS = ("out", "seeds", "sizes", "optimizer", "budget",
                  "threshold", "workers", "epsilon", "delta", "instances")


def _add_common(sub, shortcuts):
    sub.add_argument("spec", nargs="?", default=None,
                     help="INI spec file (optional; defaults apply)")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="SECTION.KEY=VALUE",
                     help="override any spec value (repeatable)")
    for name in shortcuts:
        sub.add_argument(f"--{name}", default=None,
                         help=f"shortcut for --set run.{name}=...")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rrbandit",
        description="Continuous-bandit optimization experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser(
        "toy", help="1-d staircase benchmark"),
        ("out", "seeds", "optimizer", "budget"))
    _add_common(subs.add_parser(
        "pqc", help="layered-ansatz threshold experiment"),
        ("out", "seeds", "sizes", "optimizer", "budget", "threshold",
         "workers"))
    _add_common(subs.add_parser(
        "qaoa", help="max-cut circuit threshold experiment"),
        ("out", "seeds", "sizes", "optimizer", "budget", "threshold",
         "workers"))
    _add_common(subs.add_parser(
        "bounds", help="per-instance sample-complexity bound table"),
        ("out", "instances", "epsilon", "delta"))
    return parser


def _resolve_spec(args):
    spec = load_spec(args.spec)
    for name in _RUN_SHORTCUTS:
        value = getattr(args, name, None)
        if value is not None:
            spec.set("run", name, value)
    parse_overrides(spec, args.overrides)
    return spec


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        spec = _resolve_spec(args)
        if args.command == "toy":
            res = run_toy(spec)
            print(f"wrote {res['runs']}")
            print(f"wrote {res['trace']}")
        elif args.command in ("pqc", "qaoa"):
            res = run_vqa(args.command, spec)
            for agg in res["aggregates"]:
                print(f"size={agg['size']} crossed={agg['n_crossed']}/"
                      f"{agg['n_runs']} median={agg['median']} "
                      f"status={agg['status']}")
            print(f"wrote {res['runs']}")
            print(f"wrote {res['aggregate']}")
        else:
            res = run_bounds(spec)
            print(f"wrote {res['bounds']}")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
