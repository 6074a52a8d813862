"""Command-line entry points.

Subcommands::

    fedq run   <manifest.json>  [--output-dir DIR]
    fedq sweep <manifest.json>  [--output-dir DIR]
    fedq qstar <map> --gamma G  [--tol T] [--output-dir DIR]

``run`` executes a single-point manifest (it refuses manifests that
declare sweep axes); ``sweep`` expands the axes into a grid.  The output
root falls back to the FEDQ_OUTPUT_ROOT environment variable and then to
``./runs``.  Exit codes: 0 success, 1 runtime error, 2 configuration
error: a manifest or map that is missing, unreadable or malformed, a
parameter out of range, or an output directory that cannot be created.
Configuration errors are found before any output is written.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .errors import FedqError, MapFormatError, ParamOutOfRangeError
from .harness import RunManifest, compute_qstar, output_root, run_experiment


def _cmd_manifest(args: argparse.Namespace) -> int:
    manifest = RunManifest.from_file(args.manifest)
    if args.output_dir:
        manifest = dataclasses.replace(manifest, output_dir=args.output_dir)
    if args.command == "run" and manifest.sweep:
        raise ParamOutOfRangeError("manifest declares sweep axes; use 'fedq sweep'")
    for path in run_experiment(manifest):
        print(path)
    return 0


def _cmd_qstar(args: argparse.Namespace) -> int:
    q_path, p_path = compute_qstar(args.map, args.gamma, args.tol, output_root(args.output_dir))
    print(q_path)
    print(p_path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one in the process."""
    parser = argparse.ArgumentParser(prog="fedq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "sweep"):
        p = sub.add_parser(name, help=f"{name} a manifest")
        p.add_argument("manifest", help="path to a JSON manifest")
        p.add_argument("--output-dir", default=None, help="override the manifest output directory")
        p.set_defaults(fn=_cmd_manifest)

    p = sub.add_parser("qstar", help="compute and export the fixed-point oracle for a map")
    p.add_argument("map", help="bundled map name or map file path")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(fn=_cmd_qstar)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParamOutOfRangeError, MapFormatError) as exc:
        print(f"fedq: configuration error: {exc}", file=sys.stderr)
        return 2
    except FedqError as exc:
        print(f"fedq: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
