"""One CLI operation in a fresh process: import heis.cli, run one command.

Usage: python3 child.py SRC_DIR SPANS_FILE [ARG...]  (SPANS_FILE "-" runs
untraced; ARG... is the heis command line, e.g. `levy-law --trials 100`;
without it the child only imports heis.cli).

The last line on stdout is a JSON record: the monotonic clock when the
command exited (comparable with the parent's clock on the same machine),
the import and command times, the exit code, any exception and the peak
resident set. A traced run also writes its spans and counts to SPANS_FILE.
"""

import json
import resource
import sys
import time


def main():
    src, spans_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import heis.cli
    import_s = time.monotonic() - t0
    if not heis.cli.__file__.startswith(src):
        raise SystemExit(f"imported heis from {heis.cli.__file__}, not from {src}")

    if not argv:
        print(json.dumps({"import_s": import_s}))
        return
    tracer = None
    if spans_file != "-":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.open("cli.command")
    exit_code, error = None, None
    t1 = time.monotonic()
    try:
        heis.cli.main.main(args=argv, prog_name="heis", standalone_mode=False)
        exit_code = 0
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # the parent counts the operation as failed
        error = f"{type(exc).__name__}: {exc}"
    t2 = time.monotonic()
    if tracer is not None:
        tracer.close()
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    print(json.dumps({
        "exit_mono": t2,
        "import_s": import_s,
        "command_s": t2 - t1,
        "exit_code": exit_code,
        "error": error,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main()
