"""Run one ``repro`` CLI command as a benchmark child process.

Usage::

    python3 perfbench/child.py --ready FILE [--layers FILE --trace-out FILE] -- <repro.cli args>

The program is imported from ``src/`` next to this directory, exactly as
``python -m repro.cli`` would run it. Just before the command function is
entered (after every import and argument parsing) the child writes
``time.monotonic()`` to ``--ready``; the parent subtracts its own spawn time
from it to get the set-up time. ``CLOCK_MONOTONIC`` is system-wide on Linux,
so both processes read the same clock.

With ``--layers`` the run is the traced one: :mod:`layers` wraps each
layer's public functions before the command starts, the layer metrics are
written to ``--layers`` as JSON when the command returns (also when a serve
daemon is stopped), and the Chrome/Perfetto trace to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    if "--" not in argv:
        print("child.py: expected '-- <repro.cli args>'", file=sys.stderr)
        return 2
    split = argv.index("--")
    ap = argparse.ArgumentParser(prog="child.py")
    ap.add_argument("--ready", required=True)
    ap.add_argument("--layers", default=None)
    ap.add_argument("--trace-out", default=None)
    opts = ap.parse_args(argv[:split])

    from repro import cli

    args = cli.build_parser().parse_args(argv[split + 1:])
    instrument = None
    if opts.layers:
        import layers

        instrument = layers.Instrument()
        instrument.install()
    pathlib.Path(opts.ready).write_text(repr(time.monotonic()))
    if instrument is None:
        return args.fn(args)
    try:
        with instrument.active(args.command):
            rc = args.fn(args)
    finally:
        instrument.write(opts.layers, opts.trace_out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
