"""Measurements that need a fresh interpreter, one per subcommand.

    python3 perfbench/child.py setup CONFIG [--env]
    python3 perfbench/child.py worker CONFIG TRACE_CSV
    python3 perfbench/child.py traced CONFIG BUDGET_S MIN_CALLS WORKDIR

Each prints one JSON object on its last stdout line.  ``epidyn`` must be
importable (the parent puts the checkout's ``src`` first on PYTHONPATH).
"""

from __future__ import annotations

import json
import os
import sys
import time


def setup(config: str, with_env: bool) -> dict:
    """Time `import epidyn` plus loading and validating the config."""
    t0 = time.perf_counter()
    import epidyn

    t1 = time.perf_counter()
    epidyn.load_config(config)
    t2 = time.perf_counter()
    out = {"import_s": t1 - t0, "setup_s": t2 - t0, "epidyn_file": epidyn.__file__}
    if with_env:
        out["env"] = environment()
    return out


def _run_once(epidyn, setup):
    # The API path the CLI takes, without config, manifest or file output.
    t0 = time.perf_counter()
    result = epidyn.run(
        setup.config,
        setup.structure,
        setup.landscape,
        setup.initial,
        re_target=setup.re_target,
    )
    return time.perf_counter() - t0, result


def worker(config: str, trace_csv: str) -> dict:
    """Serve `epidyn.run` calls one at a time: each "run" line on stdin
    gets a JSON line with the call's wall time; "stop" or end of input
    writes the first call's trace to TRACE_CSV and ends the loop."""
    import epidyn

    setup = epidyn.load_config(config)
    print(json.dumps({"ready": True}), flush=True)
    first, mismatches = None, 0
    for line in sys.stdin:
        if line.strip() != "run":
            break
        elapsed, result = _run_once(epidyn, setup)
        rows = result.trace.rows.tobytes()
        if first is None:
            first = rows
            result.trace.to_csv(trace_csv)
        elif rows != first:
            mismatches += 1
        print(json.dumps({"s": elapsed}), flush=True)
    return {"mismatches": mismatches}


def traced(config: str, budget_s: float, min_calls: int, workdir: str) -> dict:
    """Traced CLI runs, then API calls alternating untraced and traced, all
    in this process; spans are written to WORKDIR/spans.json at the end."""
    start = time.perf_counter()
    import epidyn
    import epidyn.cli

    import tracing

    setup = epidyn.load_config(config)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    runs = []
    # The last fifth of the budget is left for writing and reading the
    # spans (creation records about 15 spans per step).
    cli_deadline = start + 0.4 * budget_s
    while not runs or time.perf_counter() + runs[-1]["wall_s"] < cli_deadline:
        out_dir = os.path.join(workdir, f"traced-{len(runs)}")
        tracer.run = f"cli-{len(runs)}"
        t0 = time.perf_counter()
        code = epidyn.cli.main(["run", config, "--out", out_dir])
        runs.append({"out": out_dir, "code": code, "wall_s": time.perf_counter() - t0})
        tracer.replicate = None
    tracer.uninstall()

    plain, traced_times, rows = [], [], set()
    deadline = start + 0.8 * budget_s
    while len(plain) < min_calls or time.perf_counter() + plain[-1] + traced_times[-1] < deadline:
        elapsed, result = _run_once(epidyn, setup)
        plain.append(elapsed)
        rows.add(result.trace.rows.tobytes())
        tracer.run = f"api-{len(traced_times)}"
        tracing.install(tracer)
        elapsed, result = _run_once(epidyn, setup)
        tracer.uninstall()
        traced_times.append(elapsed)
        rows.add(result.trace.rows.tobytes())
    result.trace.to_csv(os.path.join(workdir, "traced-api-trace.csv"))
    with open(os.path.join(workdir, "spans.json"), "w") as fh:
        json.dump({"spans": tracer.spans, "missing": sorted(set(tracer.missing))}, fh,
                  separators=(",", ":"))
    return {
        "cli_runs": runs,
        "plain_times": plain,
        "traced_times": traced_times,
        "mismatches": len(rows) - 1,
        "spans": os.path.join(workdir, "spans.json"),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Versions, BLAS and parallelism settings, for comparing results."""
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "EPIDYN_THREADS": os.environ.get("EPIDYN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv) -> int:
    cmd, config, *rest = argv
    if cmd == "setup":
        out = setup(config, "--env" in rest)
    elif cmd == "worker":
        out = worker(config, rest[0])
    elif cmd == "traced":
        out = traced(config, float(rest[0]), int(rest[1]), rest[2])
    else:
        raise SystemExit(f"unknown subcommand {cmd!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
