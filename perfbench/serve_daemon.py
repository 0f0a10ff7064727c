"""Launch ``repro serve`` for the benchmark, optionally with layer spans.

Usage: ``python3 perfbench/serve_daemon.py [--layers DIR] -- SERVE_ARGS...``

Clears every ``REPRO_*`` knob, then calls :func:`repro.serve.cli.main`
with *SERVE_ARGS*.  With ``--layers DIR`` it first installs the wrappers
of :mod:`layers` and a ``SIGUSR1`` handler that writes this process's
layer totals to ``DIR/layers-<pid>.json``.  Pool workers are forked from
this process after both are installed, so each worker answers the signal
with its own totals.
"""

from __future__ import annotations

import os
import signal
import sys

from common import hermetic_env, require_source


def main(argv: list[str]) -> int:
    hermetic_env()
    require_source()
    layers_dir = None
    if argv[:1] == ["--layers"]:
        layers_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.serve import cli

    if layers_dir is not None:
        import layers

        tracer = layers.LayerTracer()
        layers.install(tracer, daemon=True)
        signal.signal(
            signal.SIGUSR1,
            lambda *_args: tracer.dump(
                os.path.join(layers_dir, f"layers-{os.getpid()}.json")
            ),
        )
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
