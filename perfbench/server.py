#!/usr/bin/env python3
"""Server launcher of the ``serve-*`` workloads.

Runs ``repro serve --listen 127.0.0.1:0`` in this process, as the command
line deploys it (default admission settings, the tuning service's default
config), over an on-disk registry and record log.  With
``--trace`` the layer wrappers of :mod:`layers` are installed first, so the
traced server has the same process layout as the untraced one.

SIGUSR1 zeroes the layer counters (the client sends it once set-up is done)
and touches ``<stats-out>.reset``.  SIGINT shuts the server down; the
launcher then writes its peak RSS and layer counters to ``--stats-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

import common
import layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registry", required=True)
    parser.add_argument("--records", required=True)
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    common.use_source()
    stats_out = Path(args.stats_out)

    tracer = layers.Tracer()
    if args.trace:
        layers.install(tracer)

    def reset(signum, frame) -> None:
        tracer.reset()
        stats_out.with_suffix(".reset").touch()

    signal.signal(signal.SIGUSR1, reset)
    # A process started in the background inherits an ignored SIGINT, and
    # the server is stopped with SIGINT (KeyboardInterrupt, as at a terminal).
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro.cli import main as repro_main

    # --scale 0.125 is the TuningService default config, HARLConfig.scaled().
    code = repro_main(["serve", "--listen", "127.0.0.1:0", "--scale", "0.125",
                       "--registry", args.registry, "--records-out", args.records])
    stats_out.write_text(json.dumps({
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.snapshot() if args.trace else None,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
