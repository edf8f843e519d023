"""The benchmark's traced run reaches every layer through the names it wraps.

perfbench/tracing.py times each layer by replacing the module attributes
that the program looks up when it calls into that layer (``dynamics.step``,
``dynamics.credibility_from_values``, ...).  A step that reached a layer
some other way would still run and give correct output, but the traced
benchmark would silently lose that layer's metrics.  This test only reads
perfbench; it imports its files by path.
"""

import importlib.util
import json
from pathlib import Path

from epidyn.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

# computed by perfbench/run.py itself, not from the spans
RUNNER_METRICS = {"cli.import_ms", "trace.overhead_pct"}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(tmp_path, monkeypatch, workload, horizon):
    """Run the benchmark's ``workload`` config at seed 5 for ``horizon`` steps
    through the CLI under the benchmark's tracer, check that every layer
    metric is reported, and return the tracer."""
    tracing, workloads = load_perfbench("tracing"), load_perfbench("workloads")
    doc = workloads.generate(workload, 5)
    doc["horizon"] = horizon
    config = tmp_path / f"{workload}.json"
    config.write_text(json.dumps(doc))
    monkeypatch.delenv("EPIDYN_THREADS", raising=False)  # spans stay in this process

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli_main(["run", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in bench["per_layer"]} - RUNNER_METRICS
    metrics = tracing.layer_metrics(tracer.spans, tracer.missing)
    assert sorted(wanted - set(metrics)) == []
    assert tracing.step_breakdown_error(tracer.spans) == 0
    return tracer


def test_traced_creation_run_reports_every_layer_metric(tmp_path, monkeypatch, capsys):
    traced_run(tmp_path, monkeypatch, "creation", 12)


def test_traced_crowd_run_reports_every_layer_metric(tmp_path, monkeypatch, capsys):
    # N = 400: credibility and learning are built in place, and the tracer
    # reads their arguments and result after each call
    tracer = traced_run(tmp_path, monkeypatch, "crowd", 2)
    names = [span["name"] for span in tracer.spans]
    assert names.count("influence.credibility") == names.count("influence.learning") == 2
