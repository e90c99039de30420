"""Run one fiberphase command in this fresh interpreter and record what it cost.

    python3 bench/child.py RESULT.json TRACE -- [fiberphase arguments]

With no fiberphase arguments the child only imports the CLI, which is one
set-up sample.  TRACE 1 installs the spans of ``tracing`` before the command
runs.  The record is written to RESULT.json; a command that raises leaves no
record and a non-zero exit status.
"""
import json
import os
import resource
import sys
import time


def main():
    result_file, trace, sep, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    if sep != "--":
        sys.exit("usage: child.py RESULT.json TRACE -- [fiberphase arguments]")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    start = time.perf_counter()
    from fiberphase import cli

    record = {"setup_s": time.perf_counter() - start}
    if argv:
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        record["exit_code"] = cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
        if tracer:
            record["spans"] = tracer.spans
            record["absent"] = tracer.absent
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
    with open(result_file, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
