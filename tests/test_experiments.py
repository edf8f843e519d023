import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidyn import experiments
from epidyn import (
    BoxConcepts,
    ConfigError,
    ConstantLikelihood,
    DiscreteConcepts,
    ExperimentSetup,
    GaussianPeakLikelihood,
    KnowledgeError,
    KnowledgeFunction,
    KnowledgeSetting,
    LikelihoodLandscape,
    MetricTrace,
    PopulationState,
    RunResult,
    SimulationConfig,
    TabularLikelihood,
    analyze,
    compute_credibility,
    compute_social_learning,
    dump_config,
    fit_decay_rate,
    knowledge_distance,
    load_config,
    mean_equilibrium_shifts,
    preset,
    run,
    run_experiment,
    setup_from_dict,
)
from epidyn.cli import main as cli_main
from epidyn.experiments import build_manifest, resolve_target, worker_count

from conftest import dense_learning, perfbench_workloads, unfused_credibility


# each preset variant's manifest input_hash, pinned: a preset's document
# must echo, to the byte, the setup the preset has always built
PRESET_HASHES = {
    "test1": ("test1-self-inertia", {}, "b55b8764a1091b4afd11040d3a432740170d464d"),
    "test2": ("test2-professor", {}, "81eec6ff0f6e216002d9f599dbcc2a5a382a4c55"),
    "test3": ("test3-creation", {}, "838b28cb7b7a95c4d29639d7b48d104bbea9e0b3"),
    "test4": ("test4-language", {}, "f8e9c33c0f718b5d52515bb7b3b75df49a54a3d6"),
    "test1-alpha-0.3": ("test1-self-inertia", dict(alpha=0.3),
                        "2892cef14f68b0b87300ac98aca273275fec28f1"),
    "test1-alpha-1.0": ("test1-self-inertia", dict(alpha=1.0),
                        "e52eb34b78c7b8b65f25e9fad3730ed40cb88f4f"),
    "test2-constant": ("test2-professor", dict(likelihood="constant"),
                       "17e8d34d50c8dda5b3acb51cdbbe0775e3fa8e9e"),
    "test4-overrides": ("test4-language",
                        dict(tau=0.1, seed=3, sample_size=7, metric_variant="consensus-projection"),
                        "cf01c635b02f43f20835d2ceb2643146b6cb6e15"),
}


class TestPresets:
    @pytest.mark.parametrize("variant", sorted(PRESET_HASHES))
    def test_input_hash_is_pinned(self, variant):
        name, knobs, digest = PRESET_HASHES[variant]
        assert build_manifest(preset(name, **knobs))["input_hash"] == digest

    def test_self_inertia_resolved_parameters(self):
        s = preset("test1-self-inertia", alpha=0.5)
        assert np.array_equal(s.structure, [[0.5, 0.5], [0.5, 0.5]])
        assert np.array_equal(
            s.initial.setting.experiences[:, 0], [1.0, 2.0, 3.0, 4.0, 5.0]
        )
        box = s.initial.setting.concepts
        assert box.lo[0] == -10.0 and box.hi[0] == 10.0
        assert isinstance(s.landscape, ConstantLikelihood) and s.landscape.value == 1.0
        assert s.config.c_min == 0.1
        assert s.config.tau == 0.0
        assert np.all(s.initial.values[0] == 2.0)
        assert np.all(s.initial.values[1] == 6.0)
        assert s.config.replicates == 100

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            preset("test1-self-inertia", alpha=1.5)
        with pytest.raises(ConfigError):
            preset("test1-self-inertia", alpha=-0.01)

    def test_language_preset_block_structure(self):
        s = preset("test4-language")
        expected = np.full((4, 4), 0.01)
        expected[:2, :2] = 1.0
        expected[2:, 2:] = 1.0
        assert np.array_equal(s.structure, expected)
        assert np.all(s.initial.values[:2] == 5.0)
        assert np.all(s.initial.values[2:] == 7.0)
        assert s.config.replicates == 20
        assert s.config.horizon == 400

    def test_professor_variants(self):
        con = preset("test2-professor", likelihood="constant")
        assert isinstance(con.landscape, ConstantLikelihood)
        cav = preset("test2-professor", likelihood="concave")
        assert isinstance(cav.landscape, GaussianPeakLikelihood)
        assert cav.landscape.center[0] == 6.0 and cav.landscape.width == 10.0
        assert any("exp(-(c-6)^2/10)" in note for note in cav.notes)
        gamma = cav.structure
        assert np.all(gamma[:, 0] == 1.0)
        assert np.all(gamma[0, 1:] == 0.01)
        assert np.all(gamma[1:, 1:] == 0.1)

    def test_creation_preset_targets_likelihood_peak(self):
        s = preset("test3-creation")
        assert s.config.tau == 0.02
        assert s.config.sample_size == 20
        assert s.initial.n_agents == 10
        assert np.all(s.initial.values == 0.0)
        assert np.all(s.re_target == 1.0)
        assert np.array_equal(s.structure, np.ones((10, 10)))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("test5-unknown")

    def test_cross_preset_knobs_rejected(self):
        with pytest.raises(ConfigError):
            preset("test4-language", alpha=0.5)
        with pytest.raises(ConfigError):
            preset("test1-self-inertia", likelihood="concave")

    def test_config_overrides_applied(self):
        s = preset("test1-self-inertia", alpha=0.3, replicates=7, horizon=9, seed=5)
        assert s.config.replicates == 7
        assert s.config.horizon == 9
        assert s.config.seed == 5
        with pytest.raises(ConfigError):
            preset("test1-self-inertia", not_a_field=1)


class TestConfigFiles:
    def test_round_trip_reproduces_identical_runs(self, tmp_path):
        s = preset("test1-self-inertia", alpha=0.3, replicates=2, horizon=5)
        path = tmp_path / "cfg.json"
        dump_config(s, path)
        s2 = load_config(path)
        r1 = run(s.config, s.structure, s.landscape, s.initial, re_target=s.re_target)
        r2 = run(s2.config, s2.structure, s2.landscape, s2.initial, re_target=s2.re_target)
        assert np.array_equal(r1.trace.rows, r2.trace.rows, equal_nan=True)
        assert np.array_equal(r1.final_values, r2.final_values)

    def test_every_preset_round_trips(self, tmp_path):
        for name in ("test1-self-inertia", "test2-professor", "test3-creation", "test4-language"):
            s = preset(name)
            path = tmp_path / f"{name}.json"
            dump_config(s, path)
            s2 = load_config(path)
            assert s2.to_dict() == s.to_dict()

    def test_every_config_field_round_trips(self, tmp_path):
        config = SimulationConfig(
            tau=0.25,
            sample_size=7,
            sigma_e=0.5,
            sigma_c=0.3,
            c_min=0.05,
            horizon=3,
            seed=11,
            replicates=2,
            metric_variant="consensus-projection",
            drop_zero_social=True,
        )
        # every field away from its default, so none is read back by chance
        assert all(getattr(config, f.name) != f.default for f in fields(SimulationConfig))
        s = replace(preset("test2-professor"), config=config)
        path = tmp_path / "cfg.json"
        dump_config(s, path)
        s2 = load_config(path)
        assert s2.config == config
        assert list(map(type, astuple(s2.config))) == list(map(type, astuple(config)))
        assert s2.to_dict() == s.to_dict()

    def test_unknown_keys_rejected(self, tmp_path):
        s = preset("test4-language")
        doc = s.to_dict()
        doc["turbo"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="turbo"):
            load_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "tau": 0.5,,\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_undecodable_file_is_validation_error(self, tmp_path, capsys):
        doc = preset("test4-language", replicates=1, horizon=2).to_dict()
        doc["notes"] = ["Brücke"]
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith(f"error: {path}: 'utf-8' codec can't decode")
        assert not out.exists()

    def test_deeply_nested_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"gamma": ' + "[" * 200_000 + "]" * 200_000 + "}")
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        line = capsys.readouterr().out
        assert line.startswith(f"error: {path}: ") and "recursion" in line
        assert not out.exists()

    def test_validation_lists_all_violations(self):
        s = preset("test4-language")
        doc = s.to_dict()
        del doc["gamma"]
        del doc["initial"]
        with pytest.raises(ConfigError) as err:
            setup_from_dict(doc)
        assert "gamma" in str(err.value) and "initial" in str(err.value)

    def test_gamma_shape_checked(self):
        doc = preset("test4-language").to_dict()
        doc["gamma"] = [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ConfigError, match="gamma"):
            setup_from_dict(doc)

    def test_scalar_re_target_broadcasts(self):
        doc = preset("test3-creation").to_dict()
        doc["re_target"] = 1.0
        s = setup_from_dict(doc)
        assert np.all(s.re_target == 1.0)
        assert s.re_target.shape == (25, 1)


def workload_setup(name, seed=5):
    return setup_from_dict(perfbench_workloads().generate(name, seed))


def encoded(a):
    out = []
    experiments._encode_array(a, out)
    return "".join(out)


# entries whose texts differ in form, a pair of them equal in value only
ENTRIES = [0.0, -0.0, 1.0, 5e-324, 1e16, 1e-5, 0.1, -2.5, math.nan, math.inf, -math.inf]
SHAPES = st.one_of(
    st.tuples(st.integers(1, 12)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(1, 4), st.integers(1, 5), st.sampled_from([1, 2])),
)

# arrays that are not C-ordered float64 with entries, or have none
OTHER_ARRAYS = {
    "scalar": np.float64(2.5),
    "zero-d": np.array(-0.0),
    "empty": np.zeros((0,)),
    "empty-rows": np.zeros((3, 0)),
    "no-rows": np.zeros((0, 4)),
    "int": np.arange(-3, 9).reshape(3, 4),
    "bool": np.eye(3, dtype=bool),
    "uint8": np.arange(6, dtype=np.uint8),
    "float32": np.linspace(0, 1, 12, dtype=np.float32).reshape(2, 6),
    "strided": np.arange(5.0)[::2],
    "transposed": np.arange(6.0).reshape(2, 3).T,
    "big-endian": np.array([1.5, -0.0], dtype=">f8"),
}

SETUPS = {
    **{name: (lambda name=name: preset(name)) for name in experiments.PRESET_NAMES},
    "test2-professor-constant": lambda: preset("test2-professor", likelihood="constant"),
    **{f"bench-{name}": (lambda name=name: workload_setup(name))
       for name in ("creation", "crowd", "naming")},
}


class TestConfigJson:
    """The manifest's config text is encoded from the setup's arrays, one
    ``json.dumps`` per distinct entry of a block, and must equal the
    one-shot ``json.dumps(setup.to_dict(), sort_keys=True)``."""

    @settings(max_examples=300, deadline=None)
    @given(shape=SHAPES, data=st.data(), block=st.sampled_from([1, 3, 7, 4096]))
    def test_array_text_equals_dumps(self, shape, data, block):
        size = math.prod(shape)
        entry = st.sampled_from(ENTRIES) | st.floats()
        a = np.array(data.draw(st.lists(entry, min_size=size, max_size=size))).reshape(shape)
        with mock.patch.object(experiments, "JSON_BLOCK", block):
            assert encoded(a) == json.dumps(a.tolist())

    @pytest.mark.parametrize("shape", [(5000,), (3, 5000), (1, 25, 2), (400, 25, 1), (9000, 1)])
    def test_many_repeats_across_blocks(self, shape):
        rng = np.random.default_rng(len(shape))
        a = np.array(ENTRIES)[rng.integers(0, len(ENTRIES), shape)]
        assert encoded(a) == json.dumps(a.tolist())

    @pytest.mark.parametrize("name", sorted(OTHER_ARRAYS))
    def test_other_arrays_equal_dumps(self, name):
        a = np.asarray(OTHER_ARRAYS[name])
        assert encoded(a) == json.dumps(a.tolist())

    @pytest.mark.parametrize("name", sorted(SETUPS))
    def test_config_text_and_hash_equal_the_dict_dump(self, name):
        setup = SETUPS[name]()
        want = json.dumps(setup.to_dict(), sort_keys=True)
        manifest = build_manifest(setup)
        assert setup.to_json() == manifest.config_json == want
        assert manifest["input_hash"] == experiments._git_blob_sha1(want.encode())

    def test_cli_path_lists_no_array(self, tmp_path, monkeypatch):
        # the manifest's config text comes from the arrays, not to_dict
        cfg = tmp_path / "c.json"
        dump_config(preset("test3-creation", replicates=1, horizon=2), cfg)
        monkeypatch.setattr(ExperimentSetup, "to_dict", lambda self: pytest.fail("to_dict"))
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_crowd_manifest_peak(self):
        # to_dict()'s lists and their one-shot dump peaked at 9.8 MiB
        setup = workload_setup("crowd")
        build_manifest(setup)
        tracemalloc.start()
        try:
            build_manifest(setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestRunExperiment:
    def out_files(self, d):
        return sorted(os.listdir(d))

    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run_experiment(
            "test1-self-inertia",
            out,
            overrides=dict(replicates=2, horizon=5),
            quiet=True,
        )
        assert code == 0
        assert self.out_files(out) == ["manifest.json", "mean.csv", "summary.txt", "trace.csv"]
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "t,replicate,d_consensus,d_nearest,relative_entropy"
        # one header plus (horizon + 1) rows per replicate (t = 0 included)
        assert len(trace_lines) == 1 + 2 * 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"name", "created", "config", "spectral", "input_hash"}
        assert manifest["spectral"]["is_primitive"] is True
        summary = (out / "summary.txt").read_text()
        assert "shift per agent" in summary and "agent 1" in summary

    def test_validation_failure_exit_code(self, tmp_path):
        assert run_experiment("no-such-preset", tmp_path / "o", quiet=True) == 2
        assert (
            run_experiment(
                "test1-self-inertia", tmp_path / "o2", overrides=dict(tau=3.0), quiet=True
            )
            == 2
        )

    def test_invalid_ready_setup_is_validation_error(self, tmp_path, capsys):
        # a ready setup's config is validated as a file's or an override's is
        setup = replace(preset("test1-self-inertia"), config=SimulationConfig(tau=3.0))
        out = tmp_path / "out"
        assert run_experiment(setup, out) == 2
        assert capsys.readouterr().out == "error: tau must lie in [0, 1], got 3.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("structure, message", [
        (np.ones((3, 3)), "gamma must be 2x2, got (3, 3)"),
        (np.array([[0.5, -0.5], [0.5, 0.5]]),
         "structure matrix entries must be finite and nonnegative"),
    ])
    def test_ready_setup_with_bad_structure_is_validation_error(
        self, tmp_path, capsys, structure, message
    ):
        # checked as a config file's gamma is, with the same message
        setup = replace(preset("test1-self-inertia"), structure=structure)
        out = tmp_path / "out"
        assert run_experiment(setup, out) == 2
        assert capsys.readouterr().out == f"error: {message}\n"
        assert not out.exists()
        doc = dict(setup.to_dict(), gamma=structure.tolist())
        with pytest.raises(ConfigError) as err:
            setup_from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("target", [math.nan, np.full((25, 1), math.inf)], ids=["nan", "inf"])
    def test_ready_setup_with_non_finite_target_is_validation_error(self, tmp_path, capsys, target):
        setup = replace(preset("test3-creation", replicates=1, horizon=2), re_target=target)
        out = tmp_path / "out"
        assert run_experiment(setup, out) == 2
        assert capsys.readouterr().out == "error: re_target entries must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("landscape, message", [
        (GaussianPeakLikelihood([1.0, 1.0], 1.0),
         "peak center has 2 coordinates in a 1-dimensional concept space"),
        (TabularLikelihood(np.full((25, 3), 0.5)),
         "a tabular likelihood needs a discrete concept space"),
    ], ids=["peak-2d-on-1d-box", "tabular-on-box"])
    def test_ready_setup_whose_landscape_does_not_fit_is_validation_error(
        self, tmp_path, capsys, landscape, message
    ):
        # refused with the line its config file gets: the peak once ran on
        # the box's one coordinate and the table failed at run time
        setup = replace(preset("test3-creation", replicates=1, horizon=2), landscape=landscape)
        out = tmp_path / "out"
        assert run_experiment(setup, out) == 2
        assert capsys.readouterr().out == f"error: {message}\n"
        path = tmp_path / "c.json"
        dump_config(setup, path)
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().out == f"error: {message}\n"
        assert not out.exists()

    def test_ready_setup_without_a_document_is_validation_error(self, tmp_path, capsys):
        class Unwritten(LikelihoodLandscape):
            def per_population(self, setting, values, support=None):
                return np.ones(np.shape(values)[:-1])

        setup = replace(preset("test1-self-inertia"), landscape=Unwritten())
        out = tmp_path / "out"
        assert run_experiment(setup, out) == 2
        assert capsys.readouterr().out.startswith(
            "error: a ready setup must have a config document: 'Unwritten' object"
        )
        assert not out.exists()

    def test_ready_setup_runs_its_own_objects(self):
        # checked as its document, it keeps its objects and its time index
        setup = preset("test3-creation")
        initial = PopulationState.from_values(setup.initial.setting, setup.initial.values, t=7)
        setup = replace(setup, initial=initial)
        resolved = resolve_target(setup, dict(seed=4))
        for part in ("structure", "landscape", "initial", "re_target"):
            assert getattr(resolved, part) is getattr(setup, part)
        assert resolved.config == replace(setup.config, seed=4)

    @pytest.mark.parametrize("lo, hi", [
        ([-10.0], [math.inf]), ([-math.inf], [10.0]), ([math.nan], [10.0]), ([-10.0], [math.nan]),
    ], ids=["hi-inf", "lo-inf", "lo-nan", "hi-nan"])
    def test_non_finite_box_bound_is_validation_error(self, tmp_path, capsys, lo, hi):
        # from a config file: refused before any output, where Infinity once
        # ran and wrote a manifest that a strict JSON parser refuses
        doc = perfbench_workloads().generate("creation", 5)
        doc["concepts"] = {"type": "box", "lo": lo, "hi": hi}
        path = tmp_path / "box.json"
        path.write_text(json.dumps(doc))  # the JSON tokens Infinity and NaN
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().out == "error: box bounds must be finite\n"
        assert not out.exists()
        # a ready setup cannot hold such a box: its concept space refuses it
        # as it is built, with the error the CLI reports
        setup = preset("test3-creation", replicates=1, horizon=2)
        with pytest.raises(KnowledgeError, match="^box bounds must be finite$"):
            KnowledgeSetting(setup.initial.setting.experiences, BoxConcepts(lo, hi))
        assert run_experiment(setup, tmp_path / "ok", quiet=True) == 0

    def test_manifest_is_built_before_the_run(self, tmp_path, monkeypatch):
        calls = []
        build, simulate = experiments.build_manifest, experiments.run
        monkeypatch.setattr(experiments, "build_manifest",
                            lambda setup: calls.append("build_manifest") or build(setup))
        monkeypatch.setattr(experiments, "run",
                            lambda *a, **k: calls.append("run") or simulate(*a, **k))
        assert run_experiment(
            "test1-self-inertia", tmp_path / "out", overrides=dict(replicates=1, horizon=2),
            quiet=True,
        ) == 0
        assert calls == ["build_manifest", "run"]

    def test_runtime_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the output directory should go")
        code = run_experiment(
            "test1-self-inertia",
            blocker,
            overrides=dict(replicates=1, horizon=3),
            quiet=True,
        )
        assert code == 3

    def test_runtime_failure_leaves_traceback(self, tmp_path, monkeypatch):
        def failing_run(*args, **kwargs):
            raise FloatingPointError("refit diverged")

        monkeypatch.setattr(experiments, "run", failing_run)
        out = tmp_path / "new" / "out"
        code = run_experiment(
            "test1-self-inertia", out, overrides=dict(replicates=1, horizon=3), quiet=True
        )
        assert code == 3
        assert os.listdir(out) == ["error.txt"]
        text = (out / "error.txt").read_text()
        assert text.startswith("Traceback")
        assert "FloatingPointError: refit diverged" in text
        assert "in failing_run" in text

    def test_runtime_failure_still_prints_its_line(self, tmp_path, monkeypatch, capsys):
        def failing_run(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(experiments, "run", failing_run)
        assert run_experiment("test1-self-inertia", tmp_path / "o") == 3
        assert capsys.readouterr().out == "runtime failure: boom\n"

    def test_manifest_is_compact_sorted_json(self, tmp_path):
        out = tmp_path / "out"
        assert run_experiment(
            "test1-self-inertia", out, overrides=dict(replicates=1, horizon=2), quiet=True
        ) == 0
        text = (out / "manifest.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", ["test2-professor", "test3-creation"])
    def test_written_manifest_equals_one_shot_dump(self, tmp_path, name):
        # the config is encoded once, for the input hash, and spliced into
        # the written manifest
        setup = preset(name, replicates=1, horizon=2)
        manifest = build_manifest(setup)
        whole = dict(manifest, config=setup.to_dict())
        assert manifest.to_json() == json.dumps(whole, sort_keys=True)
        out = tmp_path / "out"
        assert run_experiment(setup, out, quiet=True) == 0
        text = (out / "manifest.json").read_text()
        whole["created"] = json.loads(text)["created"]
        assert text == json.dumps(whole, sort_keys=True) + "\n"

    def test_same_seed_byte_identical_outside_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert (
                run_experiment(
                    "test4-language",
                    out,
                    overrides=dict(replicates=2, horizon=10, seed=7),
                    quiet=True,
                )
                == 0
            )
        for name in ("trace.csv", "mean.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("created"), mb.pop("created")
        assert ma == mb

    def test_config_file_target(self, tmp_path):
        s = preset("test1-self-inertia", alpha=0.4, replicates=1, horizon=4)
        cfg = tmp_path / "c.json"
        dump_config(s, cfg)
        assert run_experiment(str(cfg), tmp_path / "out", quiet=True) == 0

    def test_resolve_rejects_preset_knobs_for_paths(self, tmp_path):
        s = preset("test1-self-inertia")
        cfg = tmp_path / "c.json"
        dump_config(s, cfg)
        with pytest.raises(ConfigError):
            resolve_target(str(cfg), dict(alpha=0.2))

    @pytest.mark.parametrize("name", ["test2-professor", "test3-creation", "test4-language"])
    def test_manifest_spectral_block_equals_per_agent_path(self, name):
        setup = preset(name)
        cred = compute_credibility(
            setup.initial.functions, setup.landscape, setup.config.c_min
        )
        learning = compute_social_learning(setup.structure, cred)
        assert build_manifest(setup)["spectral"] == analyze(learning).to_dict()

    @pytest.mark.parametrize("name", ["test2-professor", "test4-language"])
    def test_manifest_learning_equals_the_dense_oracle(self, monkeypatch, name):
        # build_manifest runs on the structure's table, here the complete
        # one; a dead row of the structure is all zero on it, and the
        # report reads it as the uniform row
        from epidyn import spectral

        setup = preset(name)
        setup.structure[0] = 0.0
        seen = []
        analyze_alone = spectral.analyze
        monkeypatch.setattr(
            spectral, "analyze", lambda m, table: seen.append((m, table)) or analyze_alone(m, table)
        )
        build_manifest(setup)
        initial = setup.initial
        cred = unfused_credibility(
            initial.setting, initial.values, setup.landscape, setup.config.c_min
        )
        want = dense_learning(setup.structure, cred)
        entries, table = seen[0]
        assert table.full and not entries[0].any()
        laid_out = entries.copy()
        laid_out[0] = 1.0 / initial.n_agents
        assert np.array_equal(laid_out, want)
        assert np.all(want[0] == 1.0 / initial.n_agents)

    def test_manifest_hash_tracks_content(self):
        m1 = build_manifest(preset("test1-self-inertia", alpha=0.5))
        m2 = build_manifest(preset("test1-self-inertia", alpha=0.5))
        m3 = build_manifest(preset("test1-self-inertia", alpha=0.6))
        assert m1["input_hash"] == m2["input_hash"]
        assert m1["input_hash"] != m3["input_hash"]


class TestWorkerCount:
    def test_unset_means_one(self):
        assert worker_count(None, 8, 4) == 1

    @pytest.mark.parametrize(
        "raw, replicates, cpus, expected",
        [("1", 8, 4, 1), ("3", 8, 4, 3), ("64", 8, 4, 4), ("64", 2, 4, 2), ("5", 8, None, 1)],
    )
    def test_clamped_to_replicates_and_cpus(self, raw, replicates, cpus, expected):
        assert worker_count(raw, replicates, cpus) == expected

    @pytest.mark.parametrize("raw", ["abc", "", "0", "-3", "2.5"])
    def test_rejects_anything_but_a_positive_integer(self, raw):
        with pytest.raises(ConfigError, match="EPIDYN_THREADS"):
            worker_count(raw, 4, 4)


class TestFitDecayRate:
    def test_exact_exponential(self):
        d = 8.0 * 0.7 ** np.arange(20)
        assert fit_decay_rate(d) == pytest.approx(0.7, abs=1e-6)

    def test_constant_trace_rate_one(self):
        d = np.full(26, 8.94427190999916)
        assert fit_decay_rate(d) == pytest.approx(1.0, abs=1e-9)

    def test_prefix_stops_at_noise_floor(self):
        d = np.concatenate([8.0 * 0.5 ** np.arange(10), np.zeros(5)])
        assert fit_decay_rate(d) == pytest.approx(0.5, abs=1e-6)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_decay_rate([1.0, 0.5])
        with pytest.raises(ValueError):
            fit_decay_rate([1e-9, 1e-9, 1e-9, 1e-9])


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _edit_likelihood(**fields):
    def edit(doc):
        doc["likelihood"].update(fields)
    return edit


def _discrete_with_table(rows, cols):
    # test2's agents sit at 5 and 1; list those points in a discrete space
    def edit(doc):
        doc["concepts"] = {"type": "discrete", "points": [[0.0], [1.0], [5.0]]}
        doc["likelihood"] = {"variant": "tabular", "table": [[0.5] * cols] * rows}
    return edit


def _gamma_entry(value):
    def edit(doc):
        doc["gamma"][1][2] = value
    return edit


# config-file edits that must each be refused with exit 2 before any run
MALFORMED = {
    "sigma_e-nan": _set("sigma_e", math.nan),
    "sigma_c-nan": _set("sigma_c", math.nan),
    "c_min-nan": _set("c_min", math.nan),
    "sample_size-fraction": _set("sample_size", 2.5),
    "horizon-fraction": _set("horizon", 2.5),
    "replicates-fraction": _set("replicates", 2.5),
    "seed-negative": _set("seed", -1),
    "seed-fraction": _set("seed", 1.5),
    "width-nan": _edit_likelihood(width=math.nan),
    "center-length": _edit_likelihood(center=[1.0, 2.0]),
    "tabular-on-box": _set("likelihood", {"variant": "tabular", "table": [[0.5, 1.0]] * 5}),
    "tabular-shape": _discrete_with_table(5, 2),
    "experiences-nan": _set("experiences", [[1.0], [2.0], [math.nan], [4.0], [5.0]]),
    "experiences-inf": _set("experiences", [[1.0], [2.0], [3.0], [4.0], [math.inf]]),
    "re_target-nan": _set("re_target", math.nan),
    "re_target-inf": _set("re_target", -math.inf),
    "re_target-entry-nan": _set("re_target", [[1.0], [math.nan], [1.0], [1.0], [1.0]]),
    "re_target-entry-inf": _set("re_target", [1.0, 1.0, 1.0, math.inf, 1.0]),
    "gamma-nan": _gamma_entry(math.nan),
    "gamma-inf": _gamma_entry(math.inf),
    "notes-number": _set("notes", 5),
    "experiences-mapping": _set("experiences", {"a": 1}),
    "gamma-mapping": _set("gamma", {"a": 1}),
    "initial-mapping": _set("initial", {"a": 1}),
    "re_target-mapping": _set("re_target", {"a": 1}),
}


def _drop(section, key):
    def edit(doc):
        del doc[section][key]
    return edit


# likelihood/concepts mappings with a key missing or of the wrong type, and
# the key the error line must name
MISSING_OR_MISTYPED = {
    "width-missing": (_drop("likelihood", "width"), "width"),
    "width-list": (_edit_likelihood(width=[1]), "width"),
    "center-missing": (_drop("likelihood", "center"), "center"),
    "center-mapping": (_edit_likelihood(center={"x": 1.0}), "center"),
    "variant-missing": (_drop("likelihood", "variant"), "variant"),
    "box-lo-missing": (_drop("concepts", "lo"), "lo"),
    "box-hi-text": (_set("concepts", {"type": "box", "lo": [-10.0], "hi": "ten"}), "hi"),
    "points-missing": (_set("concepts", {"type": "discrete"}), "points"),
    "labels-number": (
        _set("concepts", {"type": "discrete", "points": [[0.0], [1.0], [5.0]], "labels": 5}),
        "labels",
    ),
    "likelihood-list": (_set("likelihood", [1.0]), "likelihood"),
}


# each CLI flag, a value, a preset it applies to, and the same as preset keywords
CLI_FLAGS = [
    ("--alpha", "0.25", "test1-self-inertia", dict(alpha=0.25)),
    ("--likelihood", "constant", "test2-professor", dict(likelihood="constant")),
    ("--tau", "0.3", "test1-self-inertia", dict(tau=0.3)),
    ("--replicates", "3", "test1-self-inertia", dict(replicates=3)),
    ("--horizon", "4", "test1-self-inertia", dict(horizon=4)),
    ("--seed", "9", "test1-self-inertia", dict(seed=9)),
    ("--sample-size", "7", "test1-self-inertia", dict(sample_size=7)),
    ("--metric", "consensus", "test1-self-inertia", dict(metric_variant="consensus-projection")),
]


class TestCli:
    def test_run_preset(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "test1-self-inertia",
                "--alpha",
                "0.5",
                "--replicates",
                "2",
                "--horizon",
                "5",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert "experiment: test1-self-inertia" in capsys.readouterr().out

    def test_metric_flag_maps_to_variant(self, tmp_path):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run",
                "test1-self-inertia",
                "--metric",
                "consensus",
                "--replicates",
                "1",
                "--horizon",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["metric_variant"] == "consensus-projection"

    @pytest.mark.parametrize("flag, value, name, override", CLI_FLAGS, ids=[f[0] for f in CLI_FLAGS])
    def test_flag_lands_in_the_resolved_config(self, tmp_path, flag, value, name, override):
        # the written config is the preset's, changed by this flag only
        out = tmp_path / "out"
        argv = ["run", name, "--replicates", "1", "--horizon", "2", flag, value, "--out", str(out)]
        assert cli_main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        small = dict(replicates=1, horizon=2)
        want = json.loads(json.dumps(preset(name, **{**small, **override}).to_dict()))
        assert config == want
        assert config != json.loads(json.dumps(preset(name, **small).to_dict()))

    def test_unknown_preset_is_validation_error(self, tmp_path, capsys):
        code = cli_main(["run", "nope", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_bad_flag_value_is_validation_error(self, tmp_path, capsys):
        code = cli_main(["run", "test1-self-inertia", "--metric", "bogus"])
        assert code == 2

    @pytest.mark.parametrize("raw", ["abc", "-3"])
    def test_bad_thread_count_is_validation_error(self, tmp_path, capsys, monkeypatch, raw):
        # rejected before any replicate runs, so no worker process starts
        monkeypatch.setenv("EPIDYN_THREADS", raw)
        out = tmp_path / "out"
        assert cli_main(["run", "test1-self-inertia", "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("error: EPIDYN_THREADS")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_config_is_validation_error(self, tmp_path, capsys, monkeypatch, case):
        doc = preset("test2-professor", replicates=2, horizon=2).to_dict()
        MALFORMED[case](doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN is written as the JSON token NaN
        calls = []
        monkeypatch.setattr(experiments, "run", lambda *a, **k: calls.append(a))
        monkeypatch.setenv("EPIDYN_THREADS", "2")
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().out.startswith("error: ")
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("case", sorted(MISSING_OR_MISTYPED))
    def test_missing_or_mistyped_key_is_validation_error(self, tmp_path, capsys, monkeypatch, case):
        edit, key = MISSING_OR_MISTYPED[case]
        doc = preset("test2-professor", replicates=2, horizon=2).to_dict()
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(experiments, "run", lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        line = capsys.readouterr().out
        assert line.startswith("error: ") and key in line
        assert calls == [] and not out.exists()

    def test_likelihood_flag(self, tmp_path):
        out = tmp_path / "out"
        code = cli_main(
            [
                "run",
                "test2-professor",
                "--likelihood",
                "constant",
                "--replicates",
                "1",
                "--horizon",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["likelihood"]["variant"] == "constant"


def per_agent_shifts(setup, result):
    """The per-agent loop that mean_equilibrium_shifts replaced, kept as its
    reference."""
    setting = setup.initial.setting
    shifts = np.zeros(setup.initial.n_agents)
    equilibria = result.equilibria()
    for eq in equilibria:
        k_eq = KnowledgeFunction(setting, setting.concepts.project(eq))
        for i, k0 in enumerate(setup.initial.functions):
            shifts[i] += knowledge_distance(k0, k_eq)
    return shifts / len(equilibria)


class TestAudienceShifts:
    @pytest.mark.parametrize("space", ["box", "discrete"])
    @pytest.mark.parametrize("replicates", [2, 9])
    def test_shifts_equal_per_agent_loop(self, space, replicates):
        rng = np.random.default_rng(replicates)
        n, n_exp = 12, 40
        if space == "box":
            concepts = BoxConcepts([-3.0, 0.0, -1.0], [3.0, 1e3, 1.0])
            draw = lambda *shape: rng.uniform(-4.0, 4.0, shape + (3,)) * [1.0, 300.0, 1.0]
        else:
            # means of listed points fall between them and are projected
            points = np.vstack([[0.0, 0.0], rng.uniform(-5.0, 5.0, (6, 2))])
            concepts = DiscreteConcepts(points)
            draw = lambda *shape: points[rng.integers(0, 7, shape)]
        setting = KnowledgeSetting(np.arange(n_exp)[:, None], concepts)
        initial = PopulationState.from_values(setting, concepts.project(draw(n, n_exp)))
        setup = ExperimentSetup(
            "shifts", SimulationConfig(replicates=replicates), np.ones((n, n)),
            ConstantLikelihood(1.0), initial,
        )
        finals = concepts.project(draw(replicates, n, n_exp))
        result = RunResult(MetricTrace(np.zeros((replicates, 1, 5))), finals)
        assert np.array_equal(mean_equilibrium_shifts(setup, result),
                              per_agent_shifts(setup, result))

    def test_concave_shifts_match_published_exactly(self):
        s = preset("test2-professor", likelihood="concave", replicates=30)
        result = run(s.config, s.structure, s.landscape, s.initial)
        shifts = mean_equilibrium_shifts(s, result)
        assert shifts[0] == pytest.approx(0.0, abs=0.2)
        assert np.all(np.abs(shifts[1:] - math.sqrt(80)) < 0.5)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "published constant-likelihood shift values (1.614, 7.331) are "
            "unreachable: the sampling update is mean-preserving, so the "
            "equilibrium average is pinned at the learning-matrix stationary "
            "blend of the start values (about 4.80, nudged higher by the "
            "parsimony penalty), while the published pair implies 4.28"
        ),
    )
    def test_constant_shifts_match_published(self):
        s = preset("test2-professor", likelihood="constant", replicates=100)
        result = run(s.config, s.structure, s.landscape, s.initial)
        shifts = mean_equilibrium_shifts(s, result)
        assert abs(shifts[0] - 1.61357428350635) < 0.5
        assert np.all(np.abs(shifts[1:] - 7.33069762649282) < 0.5)

    def test_constant_shifts_match_stationary_blend(self):
        # the verifiable version: the equilibrium average sits at or just
        # above the stationary blend 0.9489 * 5 + 4 * 0.0128 * 1 = 4.796
        s = preset("test2-professor", likelihood="constant", replicates=60)
        result = run(s.config, s.structure, s.landscape, s.initial)
        eq_means = result.equilibria().mean(axis=(1, 2))
        assert 4.6 <= eq_means.mean() <= 5.0
        shifts = mean_equilibrium_shifts(s, result)
        assert shifts[0] < 1.0
        assert np.all(shifts[1:] > 8.0)


ROOT = Path(__file__).resolve().parent.parent

# Loads the benchmark's creation workload config, runs it through the API and
# reports which of the heavy optional modules got imported.
RUN_CREATION = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
import epidyn
with open(sys.argv[2], "w") as fh:
    json.dump(workloads.creation(5), fh)
setup = epidyn.load_config(sys.argv[2])
epidyn.run(setup.config, setup.structure, setup.landscape, setup.initial,
           re_target=setup.re_target)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "statistics")))
"""


def test_creation_run_is_silent_and_imports_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", RUN_CREATION, str(ROOT / "perfbench"), str(tmp_path / "c.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == "[]\n"


# Loads a box config (the benchmark's creation workload, the test3-creation
# preset) and a discrete one (its naming workload), runs each end to end and
# reports whether numpy.ma got imported; np.unique imports it lazily, at a
# cost of 15-20 ms per fresh process.
RUN_WITHOUT_MA = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import workloads
import epidyn
from epidyn.experiments import run_experiment
for name in ("creation", "naming"):
    path = os.path.join(sys.argv[2], name + ".json")
    with open(path, "w") as fh:
        json.dump(workloads.generate(name, 5), fh)
    epidyn.load_config(path)
    assert run_experiment(path, os.path.join(sys.argv[2], name), quiet=True) == 0
print("numpy.ma" in sys.modules)
"""


def test_box_and_discrete_runs_do_not_import_numpy_ma(tmp_path):
    env = dict(os.environ)
    env.pop("EPIDYN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_MA, str(ROOT / "perfbench"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


# Imports the package and its CLI and loads the benchmark's three workload
# configs, as the benchmark's setup probe does, then reports which of
# numpy.random and scipy got imported; numpy.random alone costs about 15 ms
# of a fresh process, so it waits for the first run.
LOAD_ONLY = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import workloads
import epidyn, epidyn.cli
for name in workloads.WORKLOADS:
    path = os.path.join(sys.argv[2], name + ".json")
    with open(path, "w") as fh:
        json.dump(workloads.generate(name, 5), fh)
    epidyn.load_config(path)
print(sorted(m for m in ("numpy.random", "scipy") if m in sys.modules))
"""


def test_import_and_load_import_neither_numpy_random_nor_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", LOAD_ONLY, str(ROOT / "perfbench"), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
