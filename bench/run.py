"""qlhv benchmark: three workloads, end-to-end metrics untraced, per-layer
metrics from a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chsh-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

It imports qlhv from the checkout's src/ only and exits 2 without a result
when that is missing.  Readable lines come first; the last line of stdout
is one JSON object {correct, attempted, failed, metrics} whose metrics are
the end_to_end (--trace 0) or per_layer (--trace 1) list of BENCHMARK.json.
Each run also writes bench/out/<workload>-seed<n>-trace<t>.json, and a
traced run writes its spans to bench/out/<workload>-seed<n>-spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("chsh-sweep", "claim-library", "cli-claims")

# Fresh set-up processes per run; one more runs first, untimed, so that the
# bytecode cache of a new checkout is written before anything is timed.
PROBES = 7

def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, nproc: int, cpu: int, load_start, kernel_s: float) -> dict:
    import numpy
    import qlhv

    return {
        "seed": seed,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "reference_kernel_median_s": kernel_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qlhv": qlhv.__version__,
        "commit": git_commit(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def run_probes(mode: str, env: dict, ref) -> list:
    from workloads import run_child, strict_json

    src = str(ROOT / "src")
    records = []
    for number in range(PROBES + 1):
        ref.refresh(force=True)
        before = ref.raw[-1]
        rc, out, wall, _, ready_s = run_child([sys.executable, str(BENCH_DIR / "probe.py"), mode], env)
        lines = out.splitlines()
        if rc != 0 or len(lines) != 2:
            raise RuntimeError(f"set-up probe ({mode}) exited {rc}")
        ready, cold = strict_json(lines[0]), strict_json(lines[1])
        if not ready["qlhv"].startswith(src):
            raise RuntimeError(f"set-up probe imported qlhv from {ready['qlhv']}")
        setup_s = ref.paired(ready_s, before)
        if number:
            records.append({"setup_s": setup_s, "startup_s": wall - cold["internal_s"], **cold})
    return records


def measure(workload, seed: int, gate, ref, budget: float, tracer=None) -> list:
    """Whole passes until the next one would end past the budget (at least one)."""
    passes, spent = [], []
    start = time.perf_counter()
    if tracer is not None and workload.in_process:
        tracer.install()
    try:
        while not passes or time.perf_counter() - start + statistics.median(spent) <= budget:
            began = time.perf_counter()
            if tracer is not None:
                tracer.run_id = len(passes)
            passes.append(workload.run_pass(seed, len(passes), gate, ref, tracer))
            spent.append(time.perf_counter() - began)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return passes


def typical_calls(passes) -> list:
    """Per call position, the median over the run's passes.  All passes of a
    run repeat the same inputs, so each position is one piece of work timed
    many times; the machine is shared and single timings swing widely."""
    return [statistics.median(times) for times in zip(*(p.calls for p in passes))]


def end_to_end(workload, passes, probes) -> tuple[dict, dict]:
    """The end_to_end metrics, and readable extras."""
    median = statistics.median
    typical = typical_calls(passes)
    first, end, models = passes[0].phases["models"]
    tail_s, tail_pct = tail(typical)
    # In-process workloads: this process; cli-claims: its largest child.
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if workload.in_process
               else max(p.peak_rss_kb for p in passes))
    metrics = {
        "setup_s": median(r["setup_s"] for r in probes),
        "verdict_s": sum(typical),
        "models_per_s": models / sum(typical[first:end]),
        "cmd_wall_p50_ms": median(typical) * 1e3,
        "cmd_wall_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    extras = {"passes": len(passes), "verdict_s_median_pass": median(p.wall for p in passes),
              "cmd_wall_samples": len(typical), "cmd_wall_tail_percentile": tail_pct}
    for phase, (first, end, items) in passes[0].phases.items():
        if phase != "models":
            extras[f"{phase}_per_s"] = items / sum(typical[first:end])
    return metrics, extras


def per_layer(tracer, traced, untraced, probes, declared) -> tuple[dict, dict]:
    """The per_layer metrics, and the readable table of every traced function:
    calls, self seconds and total seconds per pass (medians over the traced passes)."""
    median = statistics.median
    totals = tracer.totals()
    runs = [totals.get(index, {}) for index in range(len(traced))]
    names = sorted({n for run in runs for n in run if isinstance(n, str)})
    table = {}
    for name in names:
        rows = [run.get(name, [0, 0.0, 0, 0.0]) for run in runs]
        table[name] = {
            "calls": median(row[0] for row in rows),
            "self_s": median(row[1] for row in rows),
            "errors": sum(row[2] for row in rows),
            "total_s": median(row[3] for row in rows),
        }
    optimizer_calls = sum(run.get("chsh.maximize_bell", [0])[0] for run in runs)
    evals = sum(run.get(("chsh.maximize_bell", "chsh.bell_expression"), 0) for run in runs)
    derived = {
        "chsh.maximize_bell.evals_per_call": evals / optimizer_calls if optimizer_calls else 0,
        "cli.import_s": median(r["cli_import_s"] for r in probes),
        "cli.startup_s": median(r["startup_s"] for r in probes),
        "ghz.cold_build_s": median(r["ghz_cold_build_s"] for r in probes),
        "trace.overhead_ratio": sum(typical_calls(traced)) / sum(typical_calls(untraced)),
        "trace.spans": median(sum(v[0] for k, v in run.items() if isinstance(k, str)) for run in runs),
        "trace.errors": sum(row["errors"] for row in table.values()),
    }
    metrics = {}
    for name in declared:   # the rest are <function>.calls or <function>.self_s
        function, field = name.rsplit(".", 1)
        metrics[name] = derived[name] if name in derived else table.get(function, {}).get(field, 0)

    extras = {"table": table}
    main_s = {}
    for record in (c for p in traced for c in p.children):
        main_s.setdefault(record["command"], []).append(record["main_s"])
    if main_s:
        extras["cli.main_s"] = {command: median(v) for command, v in main_s.items()}
    elif "cli.main" in table:   # in-process: the whole span of main
        extras["cli.main_s"] = {"chsh-verify": table["cli.main"]["total_s"]}
    return metrics, extras


def write_spans(path: Path, tracer) -> None:
    with open(path, "w") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "run", "failed"],
                   "names": tracer.names, "spans": tracer.spans}, handle, separators=(",", ":"))


def declared_metrics(trace: int) -> list:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return declared["per_layer" if trace else "end_to_end"]


def run_one(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One workload run: (final result object, everything written to the result file)."""
    import workloads
    from tracer import Tracer

    load_start = os.getloadavg()
    declared = declared_metrics(trace)
    cpus = sorted(os.sched_getaffinity(0))
    # The reference kernel and the timed work (children included) share one CPU.
    os.sched_setaffinity(0, {cpus[0]})
    try:
        src = ROOT / "src"
        workload = {"chsh-sweep": workloads.ChshSweep, "claim-library": workloads.ClaimLibrary,
                    "cli-claims": workloads.CliClaims}[name](src)
        ref = workloads.Reference()
        probes = run_probes(workload.probe_mode, workloads.child_env(src), ref)
        if workload.in_process:
            import probe
            probe.warm_up(workload.probe_mode)
        gate = workloads.Gate()
        untraced = measure(workload, seed, gate, ref, seconds / 2 if trace else seconds)
        record = {"workload": name, "trace": trace}
        if trace:
            tracer = Tracer()
            traced = measure(workload, seed, gate, ref, seconds / 2, tracer)
            values, record["layers"] = per_layer(tracer, traced, untraced, probes,
                                                 [m["name"] for m in declared])
            OUT_DIR.mkdir(exist_ok=True)
            write_spans(OUT_DIR / f"{name}-seed{seed}-spans.json", tracer)
        else:
            values, record["extras"] = end_to_end(workload, untraced, probes)
    finally:
        os.sched_setaffinity(0, cpus)
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record.update(result=result, fail_ratio=gate.failed / max(gate.attempted, 1), misses=gate.misses,
                  provenance=provenance(seed, len(cpus), cpus[0], load_start,
                                        statistics.median(ref.raw)))
    return result, record


def print_readable(record: dict) -> None:
    name = record["workload"]
    for metric, item in record["result"]["metrics"].items():
        print(f"{name:14} {metric:42} {item['value']:>14.6g} {item['unit']}")
    print(f"{name:14} {'fail_ratio':42} {record['fail_ratio']:>14.6g} "
          f"({record['result']['failed']}/{record['result']['attempted']} checks)")
    for key, value in record.get("extras", {}).items():
        print(f"{name:14} {key:42} {value:>14.6g}")
    layers = record.get("layers")
    if layers:
        for function, row in layers["table"].items():
            print(f"{name:14} {function:42} calls {row['calls']:>9g}  self_s {row['self_s']:.6f}"
                  f"  total_s {row['total_s']:.6f}  errors {row['errors']}")
        for command, seconds in layers.get("cli.main_s", {}).items():
            print(f"{name:14} {'cli.main_s.' + command:42} {seconds:>14.6g} s")
    for miss in record["misses"]:
        print(f"{name:14} MISS {miss}")
    print(f"{name:14} provenance {json.dumps(record['provenance'])}")


def run_all(args) -> int:
    """Each workload in its own process, one after another; the last line
    holds every workload's metrics as <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"error: {name} exited {done.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, item in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = item
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "qlhv" / "__init__.py").is_file():
        print(f"error: no qlhv sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import qlhv

    if not qlhv.__file__.startswith(str(src)):
        print(f"error: qlhv was imported from {qlhv.__file__}, not {src}", file=sys.stderr)
        return 2
    try:
        result, record = run_one(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print_readable(record)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
