"""Traced child process for the cli-claims workload.

Usage: python bench/cli_child.py <qlhv subcommand and arguments>
(with src/ on PYTHONPATH)

Times `import qlhv.cli`, runs `cli.main(argv)` under the span tracer with
its report captured, and prints one JSON line: exit code, report text,
import and main times, the spans, and the child's own running time.
"""

import time

ENTERED = time.perf_counter()

import sys  # noqa: E402


def main(argv) -> int:
    start = time.perf_counter()
    import qlhv.cli

    import_s = time.perf_counter() - start
    import contextlib
    import io
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    report = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(report):
        rc = qlhv.cli.main(argv)
    main_s = time.perf_counter() - start
    tracer.uninstall()
    payload = {
        "rc": rc,
        "report": report.getvalue(),
        "import_s": import_s,
        "main_s": main_s,
        "names": tracer.names,
        "spans": tracer.spans,
    }
    payload["internal_s"] = time.perf_counter() - ENTERED
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
