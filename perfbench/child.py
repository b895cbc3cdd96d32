"""One measured martctrl run in a fresh interpreter.

Started by ``run.py``; writes its measurements as one JSON object to
``--result``.  Modes:

* ``setup``: time ``import martctrl`` plus ``parse_config`` and stop.
* ``run``: also run the scenario through ``martctrl.cli.run`` untraced.
* ``trace``: install the span tracer first, then run as above.

With ``--cpu`` the process first pins itself to that CPU, where the
host-speed probe (``probe.py``) runs beside it.  numpy's BLAS then also
starts no worker threads at import, whose start-up time depends on how
soon the host schedules the other virtual CPU and made unpinned set-up
times bimodal.  The start and end of the timed intervals are reported on
``CLOCK_MONOTONIC``, the probe's clock.

Only standard-library modules are imported before the setup clock starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--src", required=True,
                        help="directory that holds the martctrl package")
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the config's thread count")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the process to this CPU")
    parser.add_argument("--out", help="artifact directory for the run")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    start = time.monotonic()
    sys.path.insert(0, args.src)
    import martctrl
    from martctrl import cli
    config = cli.parse_config(args.config)
    end = time.monotonic()
    result = {"setup_s": end - start, "setup_window": [start, end],
              "package_file": str(Path(martctrl.__file__).resolve())}

    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from spans import Tracer
            tracer = Tracer()
            result["rebound"] = tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic()
        code = cli.run(config, output_dir=args.out, seed=args.seed,
                       threads=args.threads, verbosity=0)
        end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            exit_code=code, wall_s=end - start, run_window=[start, end],
            cpu_s=_cpu_seconds(after) - _cpu_seconds(before),
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=after.ru_maxrss * 1024 / 1e6)
        if tracer is not None:
            result["trace"] = tracer.export()

    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
