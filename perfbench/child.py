"""Run one abcvote command in this fresh process and report on it.

Usage: child.py SRC TRACE SPANS_FILE ROUND COMMAND -- ARGV...

Imports ``abcvote`` from SRC, calls ``abcvote.cli.main(ARGV)`` with its
output captured, and prints one JSON object to standard output: the
clock reading on entering ``cli.main``, the import and ``cli.main``
times, the exit code (or the exception that escaped), the captured
output and the peak RSS.  With TRACE 1 the spans of the call are kept in
memory and appended to SPANS_FILE as one JSON line tagged with the
ROUND id and COMMAND label once the command has finished, and their summary is part of the report.

Nothing but ``sys`` and ``time`` is imported before ``cli.main`` runs,
so the time to its entry is interpreter start plus ``import abcvote``.
"""

import sys
import time


def main() -> None:
    src, trace, spans_file, round_id, label, dashes, *argv = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: child.py SRC TRACE SPANS_FILE ROUND COMMAND -- ARGV...")
    sys.path.insert(1, src)  # after this script's own directory
    start = time.perf_counter()
    import abcvote.cli

    imported = time.perf_counter()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    code = raised = None
    entered = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = abcvote.cli.main(argv)
            else:
                code = tracer.call_root(abcvote.cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # reported as a failed command
        raised = f"{type(exc).__name__}: {exc}"
    finished = time.perf_counter()

    import json
    import os
    import resource

    report = {
        "entered": entered,
        "import_s": imported - start,
        "main_s": finished - entered,
        "exit": code,
        "raised": raised,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": os.path.realpath(abcvote.__file__),
    }
    if tracer is not None:
        tracer.uninstall()
        report["summary"] = tracer.summary(is_search=argv[:1] == ["search"])
        with open(spans_file, "a", encoding="utf-8") as handle:
            record = {"round": int(round_id), "command": label, "spans": tracer.records()}
            handle.write(json.dumps(record))
            handle.write("\n")
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
