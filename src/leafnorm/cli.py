"""Command line interface.

    leafnorm run <file> [--format json|text] [--out <path>]
    leafnorm check <file>

`run` executes a program and prints the report as UTF-8 (exit 0 on
successful execution, 2 on parse/IO errors).  `check` exits 0 iff every
verdict in the report is true, 1 otherwise, 2 on parse/IO errors.  A report
that cannot be written, to --out or to stdout (a closed pipe, say), is an
IO error.
"""

import argparse
import os
import sys

from .dsl import parse
from .errors import DslError
from .interp import emit, execute


def _write_stdout(data):
    """Write the report to stdout; False, with a message, if it cannot."""
    try:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except OSError as exc:
        # stdout's buffer still holds the report, and the interpreter would
        # fail again flushing it at exit: point the descriptor at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("leafnorm: cannot write standard output: %s" % exc,
              file=sys.stderr)
        return False
    return True


def _load_program(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("leafnorm: cannot read %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse(source)
    except DslError as exc:
        print("leafnorm: %s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="leafnorm")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a program and print the report")
    run_p.add_argument("file")
    run_p.add_argument("--format", choices=("json", "text"), default="json")
    run_p.add_argument("--out", default=None)
    check_p = sub.add_parser("check", help="exit 0 iff all verdicts are true")
    check_p.add_argument("file")
    args = parser.parse_args(argv)

    program = _load_program(args.file)
    report = execute(program)
    # the report is UTF-8 whatever the locale, on stdout as in --out
    if args.command == "run":
        data = emit(report, args.format).encode("utf-8")
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                print("leafnorm: cannot write %s: %s" % (args.out, exc),
                      file=sys.stderr)
                return 2
        elif not _write_stdout(data):
            return 2
        return 0
    # check
    if not _write_stdout(emit(report, "text").encode("utf-8")):
        return 2
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
