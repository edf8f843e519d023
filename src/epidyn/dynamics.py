"""The stochastic learning dynamic.

Each step rebuilds credibility and the learning matrix from the current
population, draws one sample of experience/concept pairs per agent (social
draws copy another agent's table entry, individual draws perturb the agent's
own), and replaces every agent's table by the per-experience least-squares
fit of its sample.  All agents update synchronously from the time-t snapshot.

Randomness is drawn from counter-based Philox streams derived as
SeedSequence(seed, spawn_key=(replicate, agent)), so each agent's stream is
independent of every other agent's and of the replicate count; within one
stream, draws are consumed in step order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .influence import (
    compute_social_learning,
    credibility_from_values,
    validate_structure,
)
from .knowledge import (
    BoxConcepts,
    DiscreteConcepts,
    KnowledgeFunction,
    KnowledgeSetting,
    LikelihoodLandscape,
)
from .metrics import MetricTrace, trace_record

METRIC_VARIANTS = ("consensus-projection", "nearest-individual")

# Rejection rounds for box-truncated Gaussian concept draws before clamping.
MAX_TRUNCATION_ATTEMPTS = 64


class ConfigError(ValueError):
    """Raised when a simulation configuration violates its invariants."""


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the learning dynamic.

    tau is the probability that a sampled pair comes from individual
    exploration rather than from another agent; sigma_e and sigma_c are the
    exploration widths over experiences and concepts.
    """

    tau: float = 0.0
    sample_size: int = 50
    sigma_e: float = 1.0
    sigma_c: float = 0.1
    c_min: float = 0.0
    horizon: int = 25
    seed: int = 0
    replicates: int = 1
    metric_variant: str = "nearest-individual"
    drop_zero_social: bool = False

    def validate(self) -> "SimulationConfig":
        # every rule is a comparison that holds, so NaN fails them all
        rules = (
            ("tau", _real(self.tau, 0.0, 1.0), "lie in [0, 1]"),
            ("sample_size", _count(self.sample_size, 1), "be an integer >= 1"),
            ("sigma_e", _real(self.sigma_e, 0.0) and self.sigma_e > 0.0, "be positive and finite"),
            ("sigma_c", _real(self.sigma_c, 0.0) and self.sigma_c > 0.0, "be positive and finite"),
            ("c_min", _real(self.c_min, 0.0), "be nonnegative and finite"),
            ("horizon", _count(self.horizon, 1), "be an integer >= 1"),
            ("seed", _count(self.seed, 0), "be an integer >= 0"),
            ("replicates", _count(self.replicates, 1), "be an integer >= 1"),
            ("metric_variant", self.metric_variant in METRIC_VARIANTS,
             f"be one of {METRIC_VARIANTS}"),
        )
        problems = [
            f"{name} must {rule}, got {getattr(self, name)!r}" for name, ok, rule in rules if not ok
        ]
        if problems:
            raise ConfigError("; ".join(problems))
        return self


def _real(x, lo: float, hi: float = np.inf) -> bool:
    # a finite real in [lo, hi]; bool is not a number here
    real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    return real and lo <= x <= hi and x < np.inf


def _count(x, least: int) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


@dataclass(frozen=True, eq=False)
class PopulationState:
    """N knowledge functions held as one read-only (N, n_experiences, l)
    value array, plus the time index.  ``functions`` views the rows as
    :class:`KnowledgeFunction` objects."""

    setting: KnowledgeSetting
    values: np.ndarray
    t: int = 0

    def __init__(self, functions: Sequence[KnowledgeFunction], t: int = 0):
        functions = tuple(functions)
        if not functions:
            raise ConfigError("population must contain at least one agent")
        setting = functions[0].setting
        if any(k.setting is not setting for k in functions[1:]):
            raise ConfigError("all agents must share one knowledge setting")
        if t < 0:
            raise ConfigError("time index must be nonnegative")
        self._fill(setting, np.stack([k.values for k in functions]), t)

    def _fill(self, setting: KnowledgeSetting, values: np.ndarray, t: int) -> None:
        values.setflags(write=False)
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "t", t)

    @property
    def n_agents(self) -> int:
        return len(self.values)

    @property
    def functions(self) -> Tuple[KnowledgeFunction, ...]:
        cached = self.__dict__.get("_functions")
        if cached is None:
            cached = tuple(KnowledgeFunction._trusted(self.setting, v) for v in self.values)
            object.__setattr__(self, "_functions", cached)
        return cached

    @classmethod
    def from_values(cls, setting, values, t: int = 0) -> "PopulationState":
        """Population of an (N, n_experiences[, l]) value array (copied)."""
        values = np.array(values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        if values.shape[:1] == (0,):
            raise ConfigError("population must contain at least one agent")
        setting.check_values(values, values.shape[:1])
        if t < 0:
            raise ConfigError("time index must be nonnegative")
        return cls._trusted(setting, values, t)

    @classmethod
    def _trusted(cls, setting: KnowledgeSetting, values: np.ndarray, t: int) -> "PopulationState":
        # Skips validation; ``values`` must be an (N, n_experiences, l)
        # array already in the concept space.
        self = object.__new__(cls)
        self._fill(setting, values, t)
        return self


@dataclass(frozen=True, eq=False)
class Sample:
    """m experience/concept observations for one agent's update."""

    experience_indices: np.ndarray
    concepts: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.experience_indices, dtype=np.intp)
        con = np.asarray(self.concepts, dtype=float)
        if con.ndim == 1:
            con = con[:, None]
        if len(idx) != len(con):
            raise ConfigError("one concept per experience index required")
        object.__setattr__(self, "experience_indices", idx)
        object.__setattr__(self, "concepts", con)

    def __len__(self) -> int:
        return len(self.experience_indices)

    def pairs(self):
        for e, c in zip(self.experience_indices, self.concepts):
            yield int(e), c


def agent_streams(seed: int, replicate: int, n_agents: int) -> list:
    """One independent Philox generator per agent."""
    return [
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replicate, a)))
        )
        for a in range(n_agents)
    ]


def experience_kernel(setting: KnowledgeSetting, sigma_e: float) -> np.ndarray:
    """Gaussian affinity between experience points,
    K[a, b] = exp(-||e_a - e_b||^2 / (2 sigma_e^2))."""
    E = setting.experiences
    d2 = np.sum((E[:, None, :] - E[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * sigma_e**2))


def _categorical(rng, cumulative: np.ndarray, size: int) -> np.ndarray:
    u = rng.random(size)
    return np.minimum(cumulative.searchsorted(u, side="right"), len(cumulative) - 1)


def draw_social(i: int, state: PopulationState, learning, rng) -> Tuple[int, np.ndarray]:
    """One social observation for agent i: pick a source agent from row i of
    the learning matrix, pick an experience uniformly, and report that
    agent's concept there (including the zero concept)."""
    sample = draw_sample(i, state, SimulationConfig(tau=0.0, sample_size=1), learning, rng)
    return int(sample.experience_indices[0]), sample.concepts[0]


def _individual_weights(kernel: np.ndarray, support: np.ndarray) -> np.ndarray:
    w = kernel @ support.astype(float)
    total = w.sum()
    if total <= 0.0:
        # Newborn fallback: nothing conceptualized yet, explore uniformly.
        return np.full(len(w), 1.0 / len(w))
    return w / total


def _truncated_gaussian(rng, centers: np.ndarray, sigma_c: float, box: BoxConcepts) -> np.ndarray:
    out = centers + sigma_c * rng.standard_normal(centers.shape)
    bad = ~box.contains(out)
    attempts = 1
    while bad.any() and attempts < MAX_TRUNCATION_ATTEMPTS:
        redraw = centers[bad] + sigma_c * rng.standard_normal((bad.sum(), centers.shape[1]))
        out[bad] = redraw
        bad = ~box.contains(out)
        attempts += 1
    if bad.any():
        out[bad] = box.project(out[bad])
    return out


def _discrete_gaussian(rng, centers: np.ndarray, sigma_c: float, concepts: DiscreteConcepts) -> np.ndarray:
    d2 = np.sum((centers[:, None, :] - concepts.points[None, :, :]) ** 2, axis=-1)
    logits = -d2 / (2.0 * sigma_c**2)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    cum = np.cumsum(w, axis=1)
    u = rng.random(len(centers)) * cum[:, -1]
    # Rows of cum are nondecreasing, so the count of entries <= u is the
    # right-side searchsorted position.
    picks = np.minimum((cum <= u[:, None]).sum(axis=1), len(concepts) - 1)
    return concepts.points[picks]


def draw_individual(
    i: int, state: PopulationState, sigma_e: float, sigma_c: float, rng
) -> Tuple[int, np.ndarray]:
    """One self-exploration observation for agent i.

    The experience is drawn with weight proportional to its Gaussian
    affinity to the experiences the agent already conceptualizes (uniform
    for a newborn); the concept is a Gaussian perturbation of the agent's
    current concept there, confined to the concept space.
    """
    config = SimulationConfig(tau=1.0, sample_size=1, sigma_e=sigma_e, sigma_c=sigma_c)
    sample = draw_sample(i, state, config, np.eye(state.n_agents), rng)
    return int(sample.experience_indices[0]), sample.concepts[0]


def draw_sample(
    i: int,
    state: PopulationState,
    config: SimulationConfig,
    learning,
    rng,
    kernel: Optional[np.ndarray] = None,
) -> Sample:
    """m observations for agent i; each is individual with probability tau,
    social otherwise.  Zero-concept social observations are kept unless the
    configuration drops them."""
    e_idx, concepts, keep = _draw_rows(state, config, learning, [rng], [i], kernel)
    return Sample(e_idx[0, keep[0]], concepts[0, keep[0]])


def _draw_rows(state, config, learning, rngs, agents, kernel=None):
    """Samples of the listed agents, agent ``agents[r]`` drawing from
    ``rngs[r]``.

    Each stream is consumed in a fixed order: m uniforms that split
    individual from social draws, then the social source agents and
    experiences, then the individual experiences and concepts.  Returns
    (k, m) experience indices, (k, m, l) concepts and the (k, m) mask of
    the observations kept.
    """
    setting = state.setting
    values = state.values
    m = config.sample_size
    shape = (len(agents), m)
    cumulative = np.cumsum(np.asarray(learning, dtype=float)[agents], axis=1)
    individual = np.empty(shape, dtype=bool)
    sources = np.empty(shape, dtype=np.intp)
    e_idx = np.empty(shape, dtype=np.intp)
    concepts = np.empty(shape + (setting.concept_dim,))
    if config.tau > 0.0:
        support = np.any(values != 0.0, axis=-1)
        if kernel is None:
            kernel = experience_kernel(setting, config.sigma_e)
        if isinstance(setting.concepts, DiscreteConcepts):
            explore = _discrete_gaussian
        else:
            explore = _truncated_gaussian

    n_exp = setting.n_experiences
    for r, (i, rng) in enumerate(zip(agents, rngs)):
        ind = individual[r] = rng.random(m) < config.tau
        n_ind = np.count_nonzero(ind)
        soc = ~ind if n_ind else slice(None)
        if n_ind < m:
            sources[r, soc] = _categorical(rng, cumulative[r], m - n_ind)
            e_idx[r, soc] = rng.integers(0, n_exp, size=m - n_ind)
        if n_ind:
            weights = _individual_weights(kernel, support[i])
            es = _categorical(rng, np.cumsum(weights), n_ind)
            e_idx[r, ind] = es
            concepts[r, ind] = explore(rng, values[i, es], config.sigma_c, setting.concepts)

    social = ~individual
    concepts[social] = values[sources[social], e_idx[social]]
    if config.drop_zero_social:
        keep = individual | np.any(concepts != 0.0, axis=-1)
    else:
        keep = np.ones(shape, dtype=bool)
    return e_idx, concepts, keep


def least_squares_update(k_prev: KnowledgeFunction, sample: Sample) -> KnowledgeFunction:
    """Per-experience least-squares fit of the sample.

    Experiences present in the sample take the minimizer of the summed
    squared distance to their observations: the observation mean for a box
    space (clamped as a numerical safety), the listed point nearest the mean
    for a discrete space (exact ties resolved to the lowest concept index).
    Experiences absent from the sample keep their previous value, the
    minimizer closest to the old table.
    """
    if len(sample) == 0:
        return k_prev
    values = _refit(
        k_prev.setting,
        k_prev.values[None],
        sample.experience_indices[None],
        sample.concepts[None],
        np.ones((1, len(sample)), dtype=bool),
    )
    return KnowledgeFunction._trusted(k_prev.setting, values[0])


def _refit(setting, values, e_idx, concepts, keep) -> np.ndarray:
    """:func:`least_squares_update` of every agent at once.

    ``values`` is the (N, n_experiences, l) population, row a of the (N, m)
    ``e_idx``, (N, m, l) ``concepts`` and (N, m) ``keep`` is agent a's
    sample.  The samples are stacked with disjoint index offsets, so each
    agent's sums run over its own observations in sample order.  Returns a
    new value array.
    """
    n, n_exp, dim = values.shape
    total = n * n_exp
    gidx = (e_idx + n_exp * np.arange(n)[:, None])[keep]
    gcon = concepts[keep]
    counts = np.bincount(gidx, minlength=total).astype(float)
    seen = counts > 0.0
    if dim == 1:
        sums = np.bincount(gidx, weights=gcon[:, 0], minlength=total)[:, None]
    else:
        sums = np.stack(
            [np.bincount(gidx, weights=gcon[:, d], minlength=total) for d in range(dim)],
            axis=1,
        )
    means = sums[seen] / counts[seen, None]
    # identical observations must reproduce their value bit for bit, so that
    # a consensus population is exactly absorbing; summed means round
    rep = np.zeros((total, dim))
    rep[gidx] = gcon
    mismatch = np.any(gcon != rep[gidx], axis=-1)
    divided = np.bincount(gidx, weights=mismatch, minlength=total) > 0.0
    unanimous = ~divided[seen]
    means[unanimous] = rep[seen][unanimous]

    new_values = np.array(values, copy=True)
    # a box keeps componentwise means (the projection is numerical safety
    # only); a discrete space takes the listed point nearest the mean
    new_values.reshape(total, dim)[seen] = setting.concepts.project(means)
    return new_values


def step(
    state: PopulationState,
    config: SimulationConfig,
    structure,
    landscape: LikelihoodLandscape,
    rngs: Sequence[np.random.Generator],
    kernel: Optional[np.ndarray] = None,
) -> PopulationState:
    """One synchronous update of the whole population from its time-t
    snapshot: rebuild credibility and the learning matrix, then resample and
    refit every agent."""
    G = validate_structure(structure)
    n = state.n_agents
    if G.shape[0] != n:
        raise ConfigError(
            f"structure matrix is {G.shape[0]}x{G.shape[0]} for {n} agents"
        )
    if len(rngs) != n:
        raise ConfigError("one random stream per agent required")
    cred = credibility_from_values(
        state.setting, state.values, landscape, config.c_min
    )
    learning = compute_social_learning(G, cred)
    e_idx, concepts, keep = _draw_rows(state, config, learning, rngs, np.arange(n), kernel)
    new_values = _refit(state.setting, state.values, e_idx, concepts, keep)
    return PopulationState._trusted(state.setting, new_values, state.t + 1)


def run(
    config: SimulationConfig,
    structure,
    landscape: LikelihoodLandscape,
    initial: PopulationState,
    re_target: Optional[np.ndarray] = None,
    observer: Optional[Callable[[int, PopulationState], None]] = None,
    n_jobs: int = 1,
) -> "RunResult":
    """Replicated simulation producing the metric trace.

    Each replicate runs the dynamic for ``config.horizon`` steps from the
    initial state and records the metrics at t = 0 and after every step.
    Replicate streams are derived independently from (seed, replicate), so
    the trace is identical for a given configuration regardless of how many
    replicates run or in what order.  ``observer`` is called as
    observer(replicate, state) at every recorded point and forces
    single-process execution.
    """
    config.validate()
    validate_structure(structure)
    args = (config, np.asarray(structure, dtype=float), landscape, initial, re_target)
    reps = range(config.replicates)
    if n_jobs > 1 and observer is None:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_run_replicate, [(r, *args) for r in reps]))
    else:
        results = [_run_replicate((r, *args), observer) for r in reps]
    rows = np.concatenate([rows for rows, _ in results])
    finals = np.stack([final for _, final in results])
    return RunResult(MetricTrace(rows), finals)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Metric trace plus the final (replicates, N, n_experiences, l) value
    tensor, one final population per replicate."""

    trace: MetricTrace
    final_values: np.ndarray

    def equilibria(self) -> np.ndarray:
        """Across-agent mean function of each replicate's final state."""
        return self.final_values.mean(axis=1)


def _run_replicate(packed, observer=None):
    r, config, structure, landscape, initial, re_target = packed
    state = initial
    rngs = agent_streams(config.seed, r, state.n_agents)
    kernel = (
        experience_kernel(state.setting, config.sigma_e) if config.tau > 0.0 else None
    )
    rows = [trace_record(0, r, state, re_target)]
    if observer is not None:
        observer(r, state)
    for _ in range(config.horizon):
        state = step(state, config, structure, landscape, rngs, kernel=kernel)
        rows.append(trace_record(state.t, r, state, re_target))
        if observer is not None:
            observer(r, state)
    return np.asarray(rows, dtype=float), state.values
