"""Preset experiments, config files, and run orchestration.

Four presets ship with the package:

- ``test1-self-inertia``: two agents with symmetric inertia alpha, constant
  likelihood, pure social learning.  Sweeping alpha shows geometric
  convergence to shared knowledge, fastest at alpha = 0.5 and frozen at
  alpha = 1.
- ``test2-professor``: one dominant source and four students.  With a
  constant likelihood the blend is set by structure alone; with the
  concept-peaked likelihood the source's conceptualization also scores far
  higher and the population snaps to it.
- ``test3-creation``: ten newborn agents with individual exploration
  (tau > 0) discovering the high-likelihood function; tracked by the
  relative-entropy score.
- ``test4-language``: two two-agent communities with weak cross links slowly
  merging their conventions.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import traceback
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import spectral
from .dynamics import (
    ConfigError,
    PopulationState,
    RunResult,
    SimulationConfig,
    run,
)
from .influence import (
    compute_social_learning,
    credibility_from_values,
    validate_structure,
)
from .knowledge import (
    KnowledgeError,
    KnowledgeSetting,
    LikelihoodLandscape,
    concepts_from_dict,
    landscape_from_dict,
)
from .sampling import support_table

PRESET_NAMES = (
    "test1-self-inertia",
    "test2-professor",
    "test3-creation",
    "test4-language",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# a config file's keys: SimulationConfig's fields and the setup's own
_CONFIG_FIELDS = {f.name for f in fields(SimulationConfig)}
_REQUIRED_KEYS = ("gamma", "likelihood", "initial", "experiences", "concepts")
_CONFIG_KEYS = _CONFIG_FIELDS | {*_REQUIRED_KEYS, "name", "re_target", "notes"}
# the entries of an array that the config's JSON encoder takes at once: a
# block's index arrays take 32 KiB each, far below glibc's mmap threshold
JSON_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class ExperimentSetup:
    """Everything a run needs: config, structure, landscape, initial state."""

    name: str
    config: SimulationConfig
    structure: np.ndarray
    landscape: LikelihoodLandscape
    initial: PopulationState
    re_target: Optional[np.ndarray] = None
    notes: tuple = ()

    def _fields(self) -> dict:
        # the config document with its arrays as arrays: to_dict lists
        # them, to_json encodes them
        doc = {
            "name": self.name,
            **asdict(self.config),
            "gamma": np.asarray(self.structure),
            "likelihood": self.landscape.to_dict(),
            "experiences": self.initial.setting.experiences,
            "concepts": self.initial.setting.concepts.to_dict(),
            "initial": self.initial.values,
        }
        if self.re_target is not None:
            doc["re_target"] = np.asarray(self.re_target)
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in self._fields().items()}

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, with each array
        encoded from its distinct entries (see :func:`_encode_array`): no
        Python list of the structure and no Python float per entry."""
        out = []
        for key, value in sorted(self._fields().items()):
            out += [", ", json.dumps(key), ": "]
            if isinstance(value, np.ndarray):
                _encode_array(value, out)
            else:
                out.append(json.dumps(value, sort_keys=True))
        out[0] = "{"
        out.append("}")
        return "".join(out)


def _encode_array(a: np.ndarray, out: list) -> None:
    """Append the pieces of ``json.dumps(a.tolist())`` to ``out``.

    The entries are taken in blocks of ``JSON_BLOCK``.  The distinct bit
    patterns of a block, so -0.0 apart from 0.0, are encoded by one
    ``json.dumps``; each is joined to each separator that follows an entry
    in the block (", " inside a row, "], [" where a row ends, "]" after the
    last entry), and the block's text is those texts taken in order.
    """
    if a.ndim == 0 or a.size == 0 or a.dtype.kind not in "biuf" or a.itemsize not in (1, 2, 4, 8):
        out.append(json.dumps(a.tolist()))
        return
    bits = a.reshape(-1).view(f"u{a.itemsize}")
    ends = np.array(["]" * c + ", " + "[" * c for c in range(a.ndim)] + ["]" * a.ndim], dtype=object)
    # closes[f]: how many rows end at flat entry f, for each f of a block
    row = a.size // len(a)
    closes = np.zeros(row, dtype=np.int8)
    for stride in np.cumprod(a.shape[:0:-1]):
        closes[stride - 1 :: stride] += 1
    closes = np.tile(closes, -(-(row + JSON_BLOCK) // row))
    out.append("[" * a.ndim)
    for start in range(0, a.size, JSON_BLOCK):
        block = bits[start : start + JSON_BLOCK]
        ending = closes[start % row : start % row + len(block)]
        if start + len(block) == a.size:
            ending = np.append(ending[:-1], a.ndim)
        lo, hi = ending.min(), ending.max() + 1
        ordered = np.sort(block)
        patterns = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
        texts = json.dumps(patterns.view(a.dtype).tolist())[1:-1].split(", ")
        table = np.add.outer(np.array(texts, dtype=object), ends[lo:hi]).ravel()
        at = np.searchsorted(patterns, block) * (hi - lo) + (ending - lo)
        out.append("".join(table.take(at).tolist()))


def setup_from_dict(doc: dict) -> ExperimentSetup:
    """Build a validated setup from a plain config mapping.

    Unknown keys are rejected; every violated invariant is reported.
    """
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [f"missing required key {key!r}" for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise ConfigError("; ".join(missing))

    config_kwargs = {k: doc[k] for k in _CONFIG_FIELDS & doc.keys()}
    try:
        config = SimulationConfig(**config_kwargs).validate()
        setting = KnowledgeSetting(doc["experiences"], concepts_from_dict(doc["concepts"]))
        landscape = landscape_from_dict(doc["likelihood"])
        landscape.check_setting(setting)
        initial = PopulationState.from_values(setting, doc["initial"])
        n_agents = initial.n_agents
        gamma = np.asarray(doc["gamma"], dtype=float)
        if gamma.shape != (n_agents, n_agents):
            raise ConfigError(f"gamma must be {n_agents}x{n_agents}, got {gamma.shape}")
        validate_structure(gamma)
        re_target = None
        if "re_target" in doc:
            shape = (setting.n_experiences, setting.concept_dim)
            re_target = np.asarray(doc["re_target"], dtype=float)
            if re_target.ndim == 0:  # a scalar, or a ready setup's 0-d array
                re_target = np.full(shape, re_target)
            elif re_target.ndim == 1:
                re_target = re_target[:, None]
            if re_target.shape != shape:
                raise ConfigError("re_target must match (experiences, concept_dim)")
            if not np.isfinite(re_target).all():
                raise ConfigError("re_target entries must be finite")
        notes = doc.get("notes", [])
        if not isinstance(notes, list) or not all(isinstance(n, str) for n in notes):
            raise ConfigError(f"notes must be a list of strings, got {notes!r}")
    except (ConfigError, KnowledgeError, ValueError, TypeError) as err:
        # a TypeError is a value of the wrong JSON type, such as a mapping
        raise ConfigError(str(err)) from err
    return ExperimentSetup(
        name=str(doc.get("name", "custom")),
        config=config,
        structure=gamma,
        landscape=landscape,
        initial=initial,
        re_target=re_target,
        notes=tuple(notes),
    )


def load_config(path) -> ExperimentSetup:
    """Parse and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except (UnicodeDecodeError, RecursionError) as err:
        # bytes that are not UTF-8, or arrays nested deeper than the parser recurses
        raise ConfigError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return setup_from_dict(doc)


def dump_config(setup: ExperimentSetup, path) -> None:
    with open(path, "w") as fh:
        json.dump(setup.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def preset(name: str, alpha: Optional[float] = None, likelihood: Optional[str] = None,
           **overrides) -> ExperimentSetup:
    """Instantiate one of the shipped experiments from its config document.

    ``alpha`` sets the self-inertia of the two-agent preset; ``likelihood``
    selects "constant" or "concave" for the professor preset.  Remaining
    keyword overrides are SimulationConfig fields.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    if alpha is not None and name != "test1-self-inertia":
        raise ConfigError("alpha only applies to test1-self-inertia")
    if likelihood is not None and name != "test2-professor":
        raise ConfigError("likelihood variant only applies to test2-professor")

    if name == "test1-self-inertia":
        doc = _preset_self_inertia(0.5 if alpha is None else alpha)
    elif name == "test2-professor":
        doc = _preset_professor("concave" if likelihood is None else likelihood)
    elif name == "test3-creation":
        doc = _preset_creation()
    else:
        doc = _preset_language()
    return setup_from_dict({**doc, **_config_overrides(overrides)})


def _config_overrides(overrides: dict) -> dict:
    bad = sorted(set(overrides) - _CONFIG_FIELDS)
    if bad:
        raise ConfigError(f"unknown config overrides: {', '.join(bad)}")
    return overrides


def _grid(n: int, starts: list) -> dict:
    # grid_setting(n) as a document, and one constant table per start
    return {
        "experiences": [[float(e)] for e in range(1, n + 1)],
        "concepts": {"type": "box", "lo": [-10.0], "hi": [10.0]},
        "initial": [[[start]] * n for start in starts],
    }


def _preset_self_inertia(alpha: float) -> dict:
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    return {
        "name": "test1-self-inertia",
        "tau": 0.0, "sample_size": 50, "c_min": 0.1, "horizon": 25, "replicates": 100,
        "gamma": [[alpha, 1.0 - alpha], [1.0 - alpha, alpha]],
        "likelihood": {"variant": "constant", "value": 1.0},
        **_grid(5, [2.0, 6.0]),
        "notes": [f"alpha={alpha}"],
    }


def _preset_professor(variant: str) -> dict:
    if variant not in ("constant", "concave"):
        raise ConfigError(f"likelihood variant must be 'constant' or 'concave', got {variant!r}")
    doc = {
        "name": "test2-professor",
        "tau": 0.0, "sample_size": 50, "c_min": 0.0, "horizon": 25, "replicates": 100,
        "gamma": [[1.0] + [0.01] * 4] + [[1.0] + [0.1] * 4] * 4,
        "likelihood": {"variant": "constant", "value": 1.0},
        **_grid(5, [5.0, 1.0, 1.0, 1.0, 1.0]),
        "notes": [f"likelihood={variant}"],
    }
    if variant == "concave":
        doc["likelihood"] = {"variant": "gaussian-peak", "center": [6.0], "width": 10.0}
        doc["notes"].append(
            "concave likelihood uses a decaying concept peak exp(-(c-6)^2/10); "
            "a growing exponential would leave [0, 1]"
        )
    return doc


def _preset_creation() -> dict:
    return {
        "name": "test3-creation",
        "tau": 0.02, "sample_size": 20, "sigma_e": 1.0, "sigma_c": 0.1, "c_min": 0.0,
        "horizon": 25000, "replicates": 20,
        "gamma": [[1.0] * 10] * 10,
        "likelihood": {"variant": "gaussian-peak", "center": [1.0], "width": 1.0},
        **_grid(25, [0.0] * 10),
        "re_target": [[1.0]] * 25,
        "notes": ["target is the constant-one function, the likelihood peak"],
    }


def _preset_language() -> dict:
    return {
        "name": "test4-language",
        "tau": 0.0, "sample_size": 50, "c_min": 0.1, "horizon": 400, "replicates": 20,
        "gamma": [[1.0, 1.0, 0.01, 0.01]] * 2 + [[0.01, 0.01, 1.0, 1.0]] * 2,
        "likelihood": {"variant": "constant", "value": 1.0},
        **_grid(5, [5.0, 5.0, 7.0, 7.0]),
    }


def fit_decay_rate(distances, times=None) -> float:
    """Per-step contraction estimate from a distance trace.

    Least-squares slope of ln d(t) over the largest prefix with d > 1e-6;
    returns exp(slope).  Requires at least three usable points.
    """
    d = np.asarray(distances, dtype=float)
    t = np.arange(len(d)) if times is None else np.asarray(times, dtype=float)
    usable = 0
    while usable < len(d) and d[usable] > 1e-6:
        usable += 1
    if usable < 3:
        raise ValueError(
            f"need at least 3 points with distance > 1e-6, got {usable}"
        )
    slope = np.polyfit(t[:usable], np.log(d[:usable]), 1)[0]
    return float(np.exp(slope))


def _git_blob_sha1(payload: bytes) -> str:
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(payload))
    h.update(payload)
    return h.hexdigest()


class _Manifest(dict):
    """A run manifest without its config, whose JSON text it keeps as
    ``config_json``."""

    def to_json(self) -> str:
        """The manifest as compact JSON with sorted keys: "config" sorts
        before every other key."""
        return "".join(['{"config": ', self.config_json, ", ", json.dumps(self, sort_keys=True)[1:]])


def initial_report(setup: ExperimentSetup) -> spectral.SpectralReport:
    """The spectral report of the initial learning matrix, built and
    analyzed on the structure's support table: no N^2 array for a sparse
    structure (see :mod:`epidyn.spectral`)."""
    initial = setup.initial
    table = support_table(setup.structure)
    cred = credibility_from_values(
        initial.setting, initial.values, setup.landscape, setup.config.c_min, table
    )
    learning = compute_social_learning(table.entries(setup.structure), cred, cred, table)
    return spectral.analyze(learning, table)


def build_manifest(setup: ExperimentSetup) -> dict:
    """Run manifest: initial-state spectral report and a content hash of the
    resolved config, whose text :meth:`ExperimentSetup.to_json` it keeps as
    ``config_json``; its ``to_json`` writes all of it.  The timestamp is the
    only run-to-run varying field."""
    config_json = setup.to_json()
    manifest = _Manifest(
        name=setup.name,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        spectral=initial_report(setup).to_dict(),
        input_hash=_git_blob_sha1(config_json.encode()),
    )
    manifest.config_json = config_json
    return manifest


def summarize(setup: ExperimentSetup, result: RunResult) -> str:
    """Human-readable closing summary: final distances, fitted rate, and the
    per-agent initial-to-equilibrium shifts."""
    mean = result.trace.mean_rows()
    if setup.config.metric_variant == "consensus-projection":
        column, series = "d_consensus", mean[:, 1]
    else:
        column, series = "d_nearest", mean[:, 2]
    lines = [
        f"experiment: {setup.name}",
        f"replicates: {setup.config.replicates}   steps: {setup.config.horizon}",
        f"final mean d_consensus: {mean[-1, 1]:.6g}",
        f"final mean d_nearest:   {mean[-1, 2]:.6g}",
    ]
    if setup.re_target is not None:
        lines.append(f"final mean relative_entropy: {mean[-1, 3]:.6g}")
    try:
        rate = fit_decay_rate(series)
        lines.append(f"fitted per-step rate of {column}: {rate:.6g}")
    except ValueError as err:
        lines.append(f"fitted per-step rate of {column}: n/a ({err})")
    shifts = mean_equilibrium_shifts(setup, result)
    lines.append("mean initial-to-equilibrium shift per agent:")
    for i, s in enumerate(shifts):
        lines.append(f"  agent {i}: {s:.6g}")
    return "\n".join(lines) + "\n"


def mean_equilibrium_shifts(setup: ExperimentSetup, result: RunResult) -> np.ndarray:
    """Replicate-averaged distance between each agent's initial function and
    the final shared function of its replicate.

    The R equilibria are projected onto the concept space at once: an
    across-agent mean can fall between the points of a discrete space.  Each
    agent's squared distance is one stacked matmul of its flattened
    difference with itself, the BLAS dot that ``np.linalg.norm`` takes in
    :func:`~epidyn.knowledge.knowledge_distance`, and the replicates' distances
    are added in order, so each mean has the bits of the per-agent form.
    """
    equilibria = setup.initial.setting.concepts.project(result.equilibria())
    diffs = setup.initial.values - equilibria[:, None]
    flat = diffs.reshape(diffs.shape[:2] + (1, -1))
    squares = np.matmul(flat, flat.swapaxes(-1, -2))[..., 0, 0]
    return sum(np.sqrt(squares)) / len(equilibria)


def run_experiment(
    target,
    out_dir,
    overrides: Optional[dict] = None,
    quiet: bool = False,
) -> int:
    """Resolve, run and write out one experiment.

    ``target`` is a preset name, a config file path, or an ExperimentSetup.
    Writes trace.csv, mean.csv, manifest.json (compact JSON, sorted keys)
    and summary.txt into ``out_dir``.  Returns 0 on success, 2 on validation
    failure, 3 on a runtime failure, whose traceback goes to error.txt in
    ``out_dir`` when that can be written.
    """
    try:
        setup = resolve_target(target, overrides)
        n_jobs = worker_count(
            os.environ.get("EPIDYN_THREADS"), setup.config.replicates, os.cpu_count()
        )
    except (ConfigError, KnowledgeError, OSError) as err:
        if not quiet:
            print(f"error: {err}")
        return EXIT_VALIDATION
    try:
        # The manifest depends on the inputs only.  Built after the run, its
        # spectral report's matrices would follow the freeing of the run's
        # read-ahead buffer, which raises malloc's mmap threshold, onto a
        # heap that is not given back.
        manifest = build_manifest(setup).to_json()
        result = run(
            setup.config,
            setup.structure,
            setup.landscape,
            setup.initial,
            re_target=setup.re_target,
            n_jobs=n_jobs,
        )
        os.makedirs(out_dir, exist_ok=True)
        result.trace.to_csv(os.path.join(out_dir, "trace.csv"))
        result.trace.mean_to_csv(os.path.join(out_dir, "mean.csv"))
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            fh.write(manifest + "\n")
        summary = summarize(setup, result)
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write(summary)
    except Exception as err:  # runtime failure, distinct exit code
        _write_error(out_dir, traceback.format_exc())
        if not quiet:
            print(f"runtime failure: {err}")
        return EXIT_RUNTIME
    if not quiet:
        print(summary, end="")
    return EXIT_OK


def _write_error(out_dir, text: str) -> None:
    # Best effort: the failure may be that out_dir cannot be created.
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "error.txt"), "w") as fh:
            fh.write(text)
    except OSError:
        pass


def worker_count(raw: Optional[str], replicates: int, cpus: Optional[int]) -> int:
    """Replicate worker processes for an ``EPIDYN_THREADS`` value.

    Unset means one.  A set value must be a positive integer; it is clamped
    to the replicate count and to ``cpus`` (one when unknown).  Raises
    ConfigError otherwise.
    """
    if raw is None:
        return 1
    try:
        requested = int(raw)
    except ValueError:
        requested = 0
    if requested < 1:
        raise ConfigError(f"EPIDYN_THREADS must be a positive integer, got {raw!r}")
    return min(requested, replicates, cpus or 1)


def resolve_target(target, overrides: Optional[dict] = None) -> ExperimentSetup:
    """Preset name, config path or ready setup -> validated setup."""
    overrides = dict(overrides or {})
    alpha = overrides.pop("alpha", None)
    likelihood = overrides.pop("likelihood", None)
    if isinstance(target, str) and target in PRESET_NAMES:
        return preset(target, alpha=alpha, likelihood=likelihood, **overrides)
    if alpha is not None or likelihood is not None:
        raise ConfigError("alpha/likelihood overrides require a preset name")
    setup = target if isinstance(target, ExperimentSetup) else load_config(target)
    if setup is not target and not overrides:
        return setup  # validated as it was loaded
    try:
        doc = setup._fields()
    except (AttributeError, TypeError) as err:  # such as a landscape without to_dict
        raise ConfigError(f"a ready setup must have a config document: {err}") from err
    # checked as its config document; a ready setup keeps its own objects
    return replace(setup, config=setup_from_dict({**doc, **_config_overrides(overrides)}).config)
