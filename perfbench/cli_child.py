"""Run the relfuse CLI under the span tracer, for the traced CLI workload.

Usage:
    python3 perfbench/cli_child.py SPANS_JSON -- <relfuse cli arguments>

Times ``import relfuse.cli``, installs the tracer's probes, calls
``relfuse.cli.main`` with the arguments after ``--``, writes the spans and
counters to SPANS_JSON and exits with the CLI's exit code.  ``relfuse`` is
imported from the ``src`` directory next to this benchmark.
"""

import sys
from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON -- <relfuse cli arguments>")
    import relfuse.cli

    import_s = perf_counter() - T_START
    tracer = Tracer()
    tracer.count("cli.import_s", import_s)
    tracer.install_probes()
    try:
        code = relfuse.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
