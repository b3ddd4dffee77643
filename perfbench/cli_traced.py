"""Run the jordan-flow command line under the span tracer.

usage: cli_traced.py SPANS_FILE ARGS...   (ARGS as for `python -m jordanflow.cli`)

The catalog is built first, inside a `catalog.build` span, then cli.main
runs with every public function of the program wrapped; the spans are
written to SPANS_FILE when it returns.
"""

import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    from jordanflow import catalog, cli

    tracer.active = True
    with tracer.span("catalog.build"):
        catalog.names()
    code = cli.main(argv)
    tracer.active = False
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
