"""Runs one twistmod.cli command for the traced cli-mix run.

    python3 bench/cli_child.py SIDECAR MODE CLI-ARGS...

MODE is ``time`` or ``profile``.  The command's stdout and exit code are
those of ``python -m twistmod.cli CLI-ARGS``.  SIDECAR receives a JSON
object with the import and command times; in profile mode the command
runs under cProfile, whose stats go to SIDECAR + ".prof", and the
subspaces yielded by the candidate enumeration are counted.
"""

import json
import sys
import time


def main():
    started = time.perf_counter()
    sidecar, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import twistmod.cli

    imported = time.perf_counter()
    counter = None
    if mode == "profile":
        import cProfile

        from layers import CandidateCounter

        counter = CandidateCounter()
        counter.install()
        profiler = cProfile.Profile()
        profiler.enable()
        rc = twistmod.cli.main(args)
        profiler.disable()
        counter.remove()
        profiler.dump_stats(sidecar + ".prof")
    else:
        rc = twistmod.cli.main(args)
    done = time.perf_counter()
    sys.stdout.flush()
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": imported - started,
                "main_s": done - imported,
                "candidates": counter.count if counter else None,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
