"""Run one ``ucspd`` command with the benchmark's span wrappers installed.

Usage: ``launch.py SPANS_JSON SUBCOMMAND ARGS...``.  Behaves like
``python -m ucspd.cli SUBCOMMAND ARGS...`` and also writes the span totals
of the call to SPANS_JSON.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import ucspd.cli

    tracer = Tracer()
    tracer.install()
    code = ucspd.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
