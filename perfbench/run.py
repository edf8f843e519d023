"""epidyn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {creation,crowd,naming} --seed N \
        --seconds S --trace {0,1}

Run from the root of an epidyn checkout; the program is imported from its
``src`` directory.  Every simulation runs in a closed loop, one at a time,
from a single process: no replicate pool (EPIDYN_THREADS unset) and one
BLAS thread.

With ``--trace 0`` the run times fresh `epidyn run` processes (run_s,
peak_rss_mb), fresh import-and-load processes (setup_s) and repeated
`epidyn.run(...)` calls (agent_steps_per_s), all on one core with a speed
probe of that core after each sample, and checks every output.
With ``--trace 1`` one process runs the CLI and the API under spans placed
around the calls between epidyn's modules and reports per-layer metrics.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the checkout
holds no epidyn source.  A full report, with every sample and the
environment record, is written under .perfbench-work/reports/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import median, tail  # noqa: E402

MIN_ROUNDS = 3  # of the timed run: CLI process, API call, setup probe
MIN_SETUP_PROBES = 5  # in the traced run, for cli.import_ms
MIN_API_CALLS = 2  # untraced and traced each, in the traced run
HARD_LIMIT_S = 170.0  # every child is killed after this, counted from start
# The cores of a shared host run this process up to 2-3x slower in spells
# that last from a fraction of a second to minutes (user time equals wall
# time: the core is slow, not the scheduler).  So a timed run probes the
# speed of its core between samples with a fixed piece of work, and
# reports each timing as its mean over the run at the probe's nominal
# speed: a run inside a slow spell slows the probe too.
PROBE_MIN_S = 0.04  # a speed probe lasts at least this long
PROBE_SHARE = 0.05  # and at least this share of the sample before it
REF_NOMINAL_S = 0.0085  # about one probe round's time on an idle core of the 2-core host
_REF_MATRIX = None


def speed_probe(min_seconds: float):
    """Rounds of a fixed mix of the two kinds of work epidyn does,
    interpreted Python loops and a numpy kernel (an integer matrix
    product, as in the primitivity test), repeated for at least
    ``min_seconds``; returns (rounds, wall seconds)."""
    global _REF_MATRIX
    import numpy as np

    if _REF_MATRIX is None:
        _REF_MATRIX = (np.arange(160 * 160).reshape(160, 160) % 10 == 0).astype(np.int64)
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for _ in range(5):
            acc = 0
            for i in range(20_000):
                acc += i * i
        ((_REF_MATRIX @ _REF_MATRIX) > 0).astype(np.int64)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return rounds, elapsed


class Bench:
    """State of one benchmark run: counters, problems and samples."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.warnings = []
        self.samples = {}
        self.env_record = None
        name = f"{workload}-seed{seed}-{os.getpid()}"
        self.work = root / ".perfbench-work" / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_bytes(workloads.config_bytes(workload, seed))
        self.shape = workloads.shape(json.loads(self.config.read_text()))
        self.env = child_env(root / "src")

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def child(self, *args):
        """Run perfbench/child.py; returns (its JSON result, None) or
        (None, what went wrong)."""
        timeout = max(HARD_LIMIT_S - self.elapsed(), 1.0)
        cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.work, capture_output=True,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"{args[0]} probe timed out"
        if proc.returncode != 0:
            return None, f"{args[0]} probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]), None
        except (IndexError, json.JSONDecodeError):
            return None, f"{args[0]} probe printed no result"

    def setup_probe(self, keep: bool = True):
        """One setup_s sample from a fresh interpreter, returned (None on
        failure); its import time is kept for cli.import_ms.  The first
        probe also records the environment."""
        first = self.env_record is None
        self.attempted += 1
        out, err = self.child("setup", self.config, *(["--env"] if first else []))
        if out is None:
            self.fail("setup", [err])
            return None
        src = os.path.realpath(self.root / "src")
        if not os.path.realpath(out["epidyn_file"]).startswith(src):
            self.fail("setup", [f"imported epidyn from {out['epidyn_file']}"])
            return None
        self.env_record = out.get("env", self.env_record)
        if not keep:
            return None
        self.samples.setdefault("import_s", []).append(out["import_s"])
        return out["setup_s"]

    def check_run(self, what: str, out_dir: Path, reference: dict) -> None:
        """Output checks plus byte-identity with the first good run."""
        problems = check.check_output(str(out_dir), self.shape, self.workload)
        if not problems:
            got = {f: (out_dir / f).read_bytes() for f in ("trace.csv", "mean.csv")}
            if not reference:
                reference.update(got)
            problems = [f"{f} differs from the first run" for f in got if got[f] != reference[f]]
        if problems:
            self.fail(what, problems)

    def same_trace(self, what: str, csv_path: Path, reference: dict) -> None:
        if reference and csv_path.read_bytes() != reference["trace.csv"]:
            self.fail(what, ["API trace differs from the CLI trace.csv"])

    # ------------------------------------------------------------ timed

    def timed(self) -> dict:
        """Rounds of one fresh `epidyn run` process, one API call and one
        setup probe, so that all three sample the whole window, with a
        speed probe after each sample on the core they run on."""
        self.setup_probe(keep=False)  # warms the import path; records the environment
        # Children inherit the affinity, so samples and probes share a core.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        if self.env_record is not None:
            self.env_record["timed_on_cpu"] = cpu
        reference = {}
        raw = {"run_s": [], "run_call_s": [], "setup_s": []}
        rss = []
        # Probe time follows sample time, so the probes see the run's spells
        # in the share the samples do.
        probes = [speed_probe(PROBE_MIN_S)]

        def record(name, seconds):
            """Keep a sample (None if it failed), then probe the core."""
            probes.append(speed_probe(max(PROBE_MIN_S, PROBE_SHARE * (seconds or 0.0))))
            if seconds is not None:
                raw[name].append(seconds)

        deadline = self.start + self.seconds
        api_csv = self.work / "api-trace.csv"
        with ApiWorker(self, api_csv) as api:
            if not api.alive:
                self.attempted += 1
                self.fail("api", [api.error])
            for k in range(10**6):
                round_start = time.perf_counter()
                out_dir = self.work / f"run-{k}"
                self.attempted += 1
                wall, code, maxrss_kb = self.timed_cli(out_dir)
                record("run_s", wall if code == 0 else None)
                if code != 0:
                    self.fail(f"run {k}", [f"epidyn run exited {code}"])
                else:
                    rss.append(maxrss_kb / 1024.0)
                    self.check_run(f"run {k}", out_dir, reference)
                shutil.rmtree(out_dir, ignore_errors=True)
                if api.alive:
                    self.attempted += 1
                    elapsed = api.call()
                    record("run_call_s", elapsed)
                    if elapsed is None:
                        self.fail("api", [api.error])
                record("setup_s", self.setup_probe())
                now = time.perf_counter()
                if len(raw["run_s"]) >= MIN_ROUNDS and now + (now - round_start) > deadline:
                    break
                if now > deadline and (self.failed or self.elapsed() > HARD_LIMIT_S / 2):
                    break  # failing, or far slower than the workload was sized for
        if api.mismatches:
            self.fail("api", [f"{api.mismatches} calls gave another trace"])
        if raw["run_call_s"] and reference:
            self.same_trace("api", api_csv, reference)

        # Seconds at the probe's nominal speed per second on this core.
        factor = REF_NOMINAL_S * sum(n for n, _ in probes) / sum(t for _, t in probes)
        work = self.shape["agents"] * self.shape["horizon"] * self.shape["replicates"]
        self.samples.update(raw, peak_rss_mb=rss, speed_probe_s=[t / n for n, t in probes],
                            speed_factor=[factor],
                            agent_steps_per_s=[work / t for t in raw["run_call_s"]])
        metrics = {}
        if rss:
            metrics["peak_rss_mb"] = {"value": median(rss), "unit": "MB", "n": len(rss),
                                      "note": "median"}
        for name, samples, unit in (("run_s", raw["run_s"], "s"),
                                    ("setup_s", raw["setup_s"], "s"),
                                    ("agent_steps_per_s", raw["run_call_s"], "1/s")):
            if not samples:
                continue
            mean_s = factor * sum(samples) / len(samples)
            metrics[name] = {
                "value": work / mean_s if unit == "1/s" else mean_s, "unit": unit,
                "n": len(samples), "median": median(self.samples[name]),
                "note": f"mean x speed factor {factor:.4g}; median unadjusted",
            }
        return metrics

    def timed_cli(self, out_dir: Path):
        """Wall time, exit code and ru_maxrss (KiB) of one `epidyn run`."""
        cmd = [sys.executable, "-m", "epidyn.cli", "run", str(self.config), "--out", str(out_dir)]
        with open(self.work / "cli-output.txt", "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=log, stderr=log)
            killer = threading.Timer(max(HARD_LIMIT_S - self.elapsed(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if proc.returncode >= 0 else None
        return wall, code, usage.ru_maxrss

    # ------------------------------------------------------------ traced

    def traced(self) -> dict:
        for _ in range(MIN_SETUP_PROBES):
            self.setup_probe()
        budget = max(self.start + self.seconds - time.perf_counter(), 1.0)
        out, err = self.child("traced", self.config, budget, MIN_API_CALLS, self.work)
        if out is None:
            self.attempted += 1
            self.fail("traced", [err])
            return {}
        reference = {}
        for k, run in enumerate(out["cli_runs"]):
            self.attempted += 1
            if run["code"] != 0:
                self.fail(f"traced run {k}", [f"exit code {run['code']}"])
            else:
                self.check_run(f"traced run {k}", Path(run["out"]), reference)
        plain, traced = out["plain_times"], out["traced_times"]
        self.attempted += len(plain) + len(traced)
        if out["mismatches"]:
            self.fail("traced api", [f"{out['mismatches']} calls gave another trace"])
        self.same_trace("traced api", self.work / "traced-api-trace.csv", reference)

        with open(out["spans"]) as fh:
            doc = json.load(fh)
        spans, missing = doc["spans"], doc["missing"]
        reports = self.root / ".perfbench-work" / "reports"
        reports.mkdir(parents=True, exist_ok=True)
        shutil.copy(out["spans"], reports / f"{self.workload}-spans.json")
        self.warnings.extend(f"hook target missing, its metrics left out: {n}" for n in missing)
        gap = tracing.step_breakdown_error(spans)
        if gap > 1e-6:
            self.fail("trace", [f"step children plus self time miss the step by {gap:.3g} s"])

        metrics = tracing.layer_metrics(spans, missing)
        if self.samples.get("import_s"):
            imports = [1e3 * s for s in self.samples["import_s"]]
            metrics["cli.import_ms"] = {"value": median(imports), "unit": "ms",
                                        "n": len(imports), "note": "fresh processes"}
        plain_rate, traced_rate = 1.0 / median(plain), 1.0 / median(traced)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (plain_rate - traced_rate) / plain_rate, "unit": "%",
            "n": len(plain) + len(traced),
            "note": f"agent_steps_per_s, untraced {len(plain)} vs traced {len(traced)} calls",
        }
        self.samples.update(plain_call_s=plain, traced_call_s=traced)
        return metrics


class ApiWorker:
    """A child process that runs `epidyn.run` once per request."""

    def __init__(self, bench: Bench, trace_csv: Path):
        self.mismatches = 0
        self.error = None
        self.stderr = bench.work / "worker-stderr.txt"
        cmd = [sys.executable, str(HERE / "child.py"), "worker", str(bench.config), str(trace_csv)]
        with open(self.stderr, "w") as err:
            self.proc = subprocess.Popen(
                cmd, env=bench.env, cwd=bench.work, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )
        self.killer = threading.Timer(max(HARD_LIMIT_S - bench.elapsed(), 1.0), self.proc.kill)
        self.killer.start()
        self.alive = self._read() is not None

    def _read(self):
        line = self.proc.stdout.readline()
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            self.alive = False
            tail_ = self.stderr.read_text().strip()[-300:]
            self.error = f"worker ended (exit {self.proc.poll()}): {tail_}"
            return None

    def call(self):
        """Wall time of one `epidyn.run` call, or None if the worker died."""
        try:
            self.proc.stdin.write("run\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.alive = False
            self.error = "worker ended"
            return None
        out = self._read()
        return None if out is None else out["s"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            out = self._read()
            if out is not None:
                self.mismatches = out.get("mismatches", 0)
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.killer.cancel()
        return False


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("EPIDYN_THREADS", None)  # unset means one replicate at a time
    # One BLAS thread: epidyn's matrices are small enough that a second
    # OpenBLAS thread spinning on a shared core made creation's calls both
    # slower and noisier on a 2-core host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def describe(name: str, m: dict, samples) -> str:
    line = f"  {name:34s} {m['value']:>14.6g} {m['unit']:<6s} n={m.get('n', 0)}"
    if "median" in m:
        line += f"  median={m['median']:.6g}"
    if samples:
        t = tail(samples)
        line += f"  {'p%g=%.6g' % t if t else 'tail: n/a (needs >= 11 samples)'}"
    if m.get("note"):
        line += f"  [{m['note']}]"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "epidyn" / "__init__.py").is_file():
        print(f"perfbench: no epidyn source at {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        metrics = bench.traced() if args.trace else bench.timed()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    correct = bench.failed == 0
    attempted = max(bench.attempted, 1)
    mode = "traced" if args.trace else "timed"
    print(f"epidyn benchmark: workload={args.workload} seed={args.seed} mode={mode} "
          f"shape={json.dumps(bench.shape)} wall={bench.elapsed():.1f}s")
    print(f"environment: {json.dumps(bench.env_record)}")
    for name, m in sorted(metrics.items()):
        print(describe(name, m, None if args.trace else bench.samples.get(name)))
    print(f"  {'error_rate':34s} {bench.failed / attempted:>14.6g} ratio  "
          f"failed={bench.failed} attempted={attempted}")
    for p in bench.problems:
        print(f"  problem: {p}")
    for w in bench.warnings:
        print(f"  warning: {w}")

    reports = root / ".perfbench-work" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "shape": bench.shape, "environment": bench.env_record,
        "metrics": metrics, "samples": bench.samples, "problems": bench.problems,
        "warnings": bench.warnings,
        "attempted": attempted, "failed": bench.failed,
    }
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
