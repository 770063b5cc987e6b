"""One traced cold volfit process: ``coldtrace.py SPANS OP [volfit args...]``.

Imports volfit inside an ``import.volfit`` span, wraps its public
functions, runs ``volfit.cli.main`` on the given arguments (or nothing,
for a bare import) and writes the spans to SPANS as JSON lines.  The exit
code is the command's.
"""

import sys
import time

import tracer  # standard library only, so it does not skew the import


def main() -> int:
    spans_path, op, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tr = tracer.Tracer()
    tr.op = op
    start = time.perf_counter()
    import volfit.cli
    tr.spans.append(["import.volfit", start, time.perf_counter(), None, op])
    tr.install()
    try:
        code = tr.span("cli.main", volfit.cli.main)(args) if args else 0
    finally:
        tr.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
