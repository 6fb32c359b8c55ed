"""Run one qstkit CLI command with spans around qstkit's public functions.

usage: python3 perfbench/trace_child.py SPANS_OUT.json.gz <qstkit cli arguments>

The spans of the command are written to SPANS_OUT when it ends; the exit
code is the command's own.
"""

import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from qstkit import cli
    tracer.active = True
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        tracer.active = False
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
