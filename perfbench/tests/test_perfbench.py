"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SHAPE = {"agents": 3, "experiences": 2, "horizon": 4, "replicates": 2, "has_target": False}


def _write_csv(path, header, rows, int_cols):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(
                str(int(x)) if k in int_cols else f"{x:.17g}" for k, x in enumerate(row)
            ) + "\n")


@pytest.fixture
def outputs(tmp_path):
    """A well-formed output directory for SHAPE, shrinking distances."""
    R, T = SHAPE["replicates"], SHAPE["horizon"]
    rows = []
    for r in range(R):
        for t in range(T + 1):
            d = (r + 2.0) * 0.5**t
            rows.append([t, r, d, 1.25 * d, float("nan")])
    trace = np.array(rows)
    _write_csv(tmp_path / "trace.csv", check.TRACE_HEADER, trace, (0, 1))
    _write_csv(tmp_path / "mean.csv", check.MEAN_HEADER, check.per_t_mean(trace, T), (0,))
    manifest = {"spectral": {"dobrushin": 0.5, "second_modulus": 0.25, "min_entry": 0.1,
                             "is_primitive": True, "primitivity_exponent": 1}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "summary.txt").write_text("experiment: synthetic\n")
    return tmp_path


def test_checker_accepts_well_formed_outputs(outputs):
    assert check.check_output(str(outputs), SHAPE, "naming") == []


def test_checker_rejects_trace_with_a_row_dropped(outputs):
    path = outputs / "trace.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    problems = check.check_output(str(outputs), SHAPE, "naming")
    assert any("trace.csv" in p and "rows" in p for p in problems)


def test_checker_rejects_mean_that_disagrees_with_trace(outputs):
    path = outputs / "mean.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = check.check_output(str(outputs), SHAPE, "naming")
    assert problems == ["mean.csv: does not equal the per-t mean of trace.csv"]


def test_checker_rejects_out_of_range_spectral_fields(outputs):
    doc = json.loads((outputs / "manifest.json").read_text())
    doc["spectral"]["dobrushin"] = 1.5
    doc["spectral"]["min_entry"] = -0.1
    (outputs / "manifest.json").write_text(json.dumps(doc))
    problems = check.check_output(str(outputs), SHAPE, "naming")
    assert len(problems) == 2


def test_checker_rejects_missing_file(outputs):
    (outputs / "summary.txt").unlink()
    assert check.check_output(str(outputs), SHAPE, "naming") == [
        "missing output files: summary.txt"
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    assert workloads.config_bytes(name, 7) == workloads.config_bytes(name, 7)
    assert workloads.config_bytes(name, 7) != workloads.config_bytes(name, 8)


@pytest.mark.parametrize("name", ["crowd", "naming"])
def test_generated_inputs_follow_the_seed(name):
    a, b = workloads.generate(name, 1), workloads.generate(name, 2)
    assert a["initial"] != b["initial"]


def test_ring_lattice_has_self_and_k_neighbours_each_side():
    gamma = np.array(workloads.ring_lattice(10, 2))
    assert (gamma.sum(axis=1) == 5).all()
    assert gamma[0, 9] == gamma[0, 8] == gamma[0, 2] == 1.0 and gamma[0, 3] == 0.0


def test_creation_config_is_the_preset_at_bench_size():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from epidyn import preset, setup_from_dict
    finally:
        sys.path.remove(str(ROOT / "src"))
    sizes = {"horizon": workloads.CREATION["horizon"],
             "replicates": workloads.CREATION["replicates"], "seed": 5}
    expected = preset("test3-creation", **sizes).to_dict()
    got = setup_from_dict(workloads.generate("creation", 5)).to_dict()
    expected.pop("notes", None)
    expected["name"] = got["name"]
    assert got == expected


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "replicate": 0}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "dynamics.step", 0.0, 10.0),
        _span(1, "influence.credibility", 1.0, 3.0, 0),
        _span(2, "dynamics.draw_sample", 2.0, 5.0, 0),  # overlaps its sibling
        _span(3, "dynamics.draw_sample", 8.0, 9.0, 0),
        _span(4, "knowledge.per_population", 1.5, 2.5, 1),  # grandchild
    ]
    kids = tracing.children_of(spans)
    assert tracing.self_time(spans[0], kids) == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.self_time(spans[1], kids) == pytest.approx(1.0)
    assert tracing.self_time(spans[3], kids) == pytest.approx(1.0)
    # overlapping children break the children + self = span breakdown
    assert tracing.step_breakdown_error(spans) == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_step():
    spans = [
        _span(0, "dynamics.step", 0.0, 0.010),
        _span(1, "influence.credibility", 0.001, 0.004, 0),
        _span(2, "knowledge.per_population", 0.001, 0.002, 1),
        _span(3, "influence.learning", 0.004, 0.005, 0),
        _span(4, "dynamics.draw_sample", 0.005, 0.006, 0),
        _span(5, "dynamics.draw_sample", 0.006, 0.008, 0),
    ]
    spans[4]["observations"] = spans[5]["observations"] = 20
    m = tracing.layer_metrics(spans)
    assert tracing.step_breakdown_error(spans) == pytest.approx(0.0, abs=1e-12)
    assert m["dynamics.step_ms"]["value"] == pytest.approx(10.0)
    assert m["influence.credibility_ms"]["value"] == pytest.approx(2.0)
    assert m["knowledge.likelihood_ms"]["value"] == pytest.approx(1.0)
    assert m["dynamics.sample_ms"]["value"] == pytest.approx(3.0)
    assert m["dynamics.refit_ms"]["value"] == pytest.approx(3.0)
    assert m["dynamics.draw_calls"]["value"] == 2
    assert m["dynamics.observations"]["value"] == 40
    assert m["spectral.analyze_ms"]["note"] == "no work"


def test_missing_hook_leaves_its_metrics_out():
    spans = [_span(0, "dynamics.step", 0.0, 1.0)]
    m = tracing.layer_metrics(spans, missing=["dynamics.draw_sample"])
    assert "dynamics.sample_ms" not in m and "dynamics.refit_ms" not in m
    assert "dynamics.step_ms" in m


def test_speed_probe_runs_whole_rounds_for_its_minimum_time():
    import run

    rounds, seconds = run.speed_probe(0.02)
    assert rounds >= 1 and seconds >= 0.02
    assert run.speed_probe(0.0)[0] == 1


def test_tail_needs_ten_samples_beyond_it():
    assert tracing.tail(list(range(10))) is None
    assert tracing.tail(list(range(1, 21))) == (50.0, 10)
    p, v = tracing.tail(list(range(1, 1001)))
    assert (p, v) == (99.0, 990)


def test_tracer_wraps_and_restores():
    class Owner:
        @staticmethod
        def f(x):
            return 2 * x

    tracer = tracing.Tracer()
    tracer.wrap(Owner, "f", "owner.f")
    tracer.wrap(Owner, "absent", "owner.absent")
    assert Owner.f(3) == 6
    assert [s["name"] for s in tracer.spans] == ["owner.f"]
    assert tracer.missing == ["owner.absent"]
    tracer.uninstall()
    Owner.f(3)
    assert len(tracer.spans) == 1


def test_refuses_to_run_without_epidyn_source(tmp_path, monkeypatch, capsys):
    import run

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "naming", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
