"""Run the hexflow command line with the benchmark's layers traced.

    python perfbench/traced_cli.py SPANS_OUT ARGS...

behaves as `python -m hexflow.cli ARGS...` (hexflow must be importable,
for example through PYTHONPATH) and writes the spans it recorded to
SPANS_OUT for the parent benchmark process to merge.
"""

import sys

import hexflow.cli

from tracer import LAYERS, Tracer, install, write_doc


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer, LAYERS)
    try:
        return hexflow.cli.main(argv)
    finally:
        write_doc(out, tracer.to_doc())


if __name__ == "__main__":
    sys.exit(main())
