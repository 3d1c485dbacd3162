"""One benchmark job: ``fedlora-dp <mode>`` in this process, with timestamps.

Usage: python job.py [--trace SPANS_NPZ] MAIN_LOOP RESULT_JSON -- <fedlora-dp arguments>

Before calling the CLI it rebinds ``MAIN_LOOP`` (a ``module.function`` name)
to a wrapper that stamps the first call; set-up ends there.  With
``--trace`` it also wraps every layer function (see ``layers.py``) and writes
the spans when the CLI returns.  Times use ``time.monotonic``, the clock the
parent process reads, so they compare across the two processes.
"""

import argparse
import importlib
import json
import resource
import sys
import time

from layers import install_tracer, package_modules
from tracer import Tracer, patch_everywhere, restore


def stamp_first_call(dotted: str, stamps: dict[str, float]) -> list:
    """Record in ``stamps['first_call']`` when ``dotted`` is first called."""
    module_name, _, attr = dotted.rpartition(".")
    current = getattr(importlib.import_module(f"fedlora_dp.{module_name}"), attr)

    def stamped(*args, **kwargs):
        stamps.setdefault("first_call", time.monotonic())
        return current(*args, **kwargs)

    return patch_everywhere(package_modules(), current, stamped)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("main_loop")
    parser.add_argument("result")
    parser.add_argument("--trace")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from fedlora_dp import cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracer(tracer)
    stamps: dict[str, float] = {}
    patched = stamp_first_call(args.main_loop, stamps)
    try:
        code = cli.main(cli_args)
    finally:
        restore(patched)
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.save(args.trace)
    result = {
        "exit_code": code,
        "first_call": stamps.get("first_call"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
