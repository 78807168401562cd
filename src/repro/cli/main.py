"""Parser assembly and entry point for ``python -m repro``.

Each subcommand module contributes a ``register(sub)`` hook that adds
its own subparser; this module only owns the top-level parser, the
registration order (which is the ``--help`` order), and the shared
error-to-exit-code mapping.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..errors import ReproError, SearchInterrupted
from . import (
    campaign_cmd,
    fuzz_cmd,
    modes_cmd,
    replay_cmd,
    run_cmd,
    serve_cmd,
    stats_cmd,
    store_cmd,
)

__all__ = ["build_parser", "main"]

#: subcommand modules in --help order
_COMMANDS = (
    run_cmd,
    stats_cmd,
    campaign_cmd,
    serve_cmd,
    store_cmd,
    fuzz_cmd,
    modes_cmd,
    replay_cmd,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Higher-order test generation for MiniC programs "
            "(reproduction of Godefroid, PLDI 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in _COMMANDS:
        module.register(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SearchInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        if exc.resume_hint:
            print(f"resume with: {exc.resume_hint}", file=sys.stderr)
        elif exc.checkpoint_dir:
            print(
                f"resume with: repro run ... --resume {exc.checkpoint_dir}",
                file=sys.stderr,
            )
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
