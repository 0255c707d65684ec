"""Fresh-process set-up probe.

Usage: python bench/probe.py <sweep|library|cli>   (with src/ on PYTHONPATH)

Imports what the workload imports, makes its warm-up call, then prints a
"ready" JSON line; the parent times process start to that line.  After it,
outside set-up, the probe finishes `import qlhv.cli`, times the first GHZ
build and prints a second line with its own running time, so that the
parent can split the process wall into interpreter floor and qlhv work.
"""

import time

ENTERED = time.perf_counter()

import sys  # noqa: E402


def warm_up(mode: str) -> None:
    """The one small call a workload makes before its first timed call."""
    if mode == "sweep":
        import contextlib
        import io

        from qlhv import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["chsh-verify", "--samples", "10", "--seed", "0"])
    elif mode == "library":
        import numpy as np

        from qlhv import chsh, oracle, qubit

        s = 2.0 ** -0.5
        oracle.chsh_quantum_value((1, 0, 0), (0, 1, 0), (s, s, 0), (s, -s, 0))
        chsh.bell_expression(chsh.sample_model(np.random.default_rng(0)))
        qubit.axis_expectation(qubit.state_distribution((0.0, 0.0, 1.0)), "z")
        oracle.qubit_expectation((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
        chsh.maximize_bell(4, 2, 0)


def main(mode: str) -> int:
    start = time.perf_counter()
    if mode == "library":
        import qlhv
    else:
        import qlhv.cli  # noqa: F401
    import_s = time.perf_counter() - start
    import json

    warm_up(mode)
    print(json.dumps({"qlhv": qlhv.__file__, "import_s": import_s}), flush=True)

    start = time.perf_counter()
    import qlhv.cli  # noqa: F811  (the rest of the CLI import on library probes)

    cli_import_s = import_s + time.perf_counter() - start
    from qlhv import ghz

    start = time.perf_counter()
    ghz.ghz_intersection()
    ghz_cold_build_s = time.perf_counter() - start
    print(json.dumps({
        "cli_import_s": cli_import_s,
        "ghz_cold_build_s": ghz_cold_build_s,
        "internal_s": time.perf_counter() - ENTERED,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
