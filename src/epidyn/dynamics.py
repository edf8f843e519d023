"""The stochastic learning dynamic.

Each step rebuilds credibility and the learning matrix from the current
population, draws one sample of experience/concept pairs per agent (social
draws copy another agent's table entry, individual draws perturb the agent's
own), and replaces every agent's table by the per-experience least-squares
fit of its sample.  All agents update synchronously from the time-t snapshot.

Randomness is drawn from counter-based Philox streams keyed as by
SeedSequence(seed, spawn_key=(replicate, agent)), so each agent's stream is
independent of every other agent's and of the replicate count.  Every step
uses one block of the same size from every stream, whatever the draws turn
out to be; a run reads the blocks of a chunk of steps in one read per
stream, which gives the same numbers.  The agents that social observations
copy are found by one search of all the streams' queries at once (see
:mod:`epidyn.sampling`).  Credibility, the learning matrix and that search
work on the structure's column table, the entries of each row's support.
Replicates are stepped together as one (R, N, E, l) stack, and each
population of the stack rounds as it would alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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
from .metrics import TRACE_COLUMNS, MetricTrace, trace_record
from .sampling import (
    ReadAhead,
    SupportTable,
    agent_streams,
    pick_sources,
    search_rows,
    stream_offsets,
    support_table,
    uniforms,
)

METRIC_VARIANTS = ("consensus-projection", "nearest-individual")


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
    :class:`KnowledgeFunction` objects.  ``run`` steps (R, N, E, l) stacks
    of R populations, for which ``functions`` does not apply."""

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
        return self.values.shape[-3]

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


def experience_kernel(setting: KnowledgeSetting, sigma_e: float) -> np.ndarray:
    """Gaussian affinity between experience points,
    K[a, b] = exp(-||e_a - e_b||^2 / (2 sigma_e^2))."""
    E = setting.experiences
    d2 = np.sum((E[:, None, :] - E[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * sigma_e**2))


# Wichura's algorithm AS241 (Applied Statistics 37, 1988): the normal
# quantile as a ratio of two degree-7 polynomials in r >= 0 on each of
# three ranges.  Each range lists its numerator and denominator
# coefficients, highest degree first; all are positive, so no evaluation
# cancels.
_AS241 = np.array([
    [  # central range
        [2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
         4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
         1.3314166789178437745e+2, 3.3871328727963666080e+0],
        [5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
         2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
         4.2313330701600911252e+1, 1.0],
    ],
    [  # near tail
        [7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
         1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
         4.63033784615654529590e+0, 1.42343711074968357734e+0],
        [1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
         1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
         2.05319162663775882187e+0, 1.0],
    ],
    [  # far tail
        [2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
         2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
         5.46378491116411436990e+0, 6.65790464350110377720e+0],
        [2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
         7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
         5.99832206555887937690e-1, 1.0],
    ],
])

_POWERS = np.arange(7.0, -1.0, -1.0)
_SQRT2 = math.sqrt(2.0)
_TINY = np.finfo(float).tiny
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x) -> np.ndarray:
    """Standard normal CDF of each entry, 0.5 erfc(-x / sqrt 2), accurate
    to the last bits in both tails."""
    return 0.5 * np.asarray(_erfc(np.divide(x, -_SQRT2)), dtype=float)


def _normal_ppf(p) -> np.ndarray:
    """Standard normal quantile of each entry of ``p``, in (0, 1), by AS241.
    p = 0 and p = 1 give a finite -37.5 and 37.5 instead of infinities."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    s = np.sqrt(-np.log(np.maximum(np.minimum(p, 1.0 - p), _TINY)))
    central, far = np.abs(q) <= 0.425, s > 5.0
    r = np.where(central, 0.180625 - q * q, s - np.where(far, 5.0, 1.6))
    # each entry's numerator and denominator as power sums along the last
    # axis, so an entry rounds alike whatever the array's shape
    terms = _AS241[np.where(central, 0, 1 + far)] * r[..., None, None] ** _POWERS
    sums = terms.sum(axis=-1)
    ratio = sums[..., 0] / sums[..., 1]
    return np.where(central, q * ratio, np.copysign(ratio, q))


def _truncated_gaussian(u, centers: np.ndarray, sigma_c: float, box: BoxConcepts) -> np.ndarray:
    """Gaussian concepts about ``centers`` truncated to the box, one uniform
    of ``u`` per component, by inverse CDF: c + sigma Phi^-1(p) with
    p = Phi(a) + u (Phi(b) - Phi(a)), a = (lo - c) / sigma and
    b = (hi - c) / sigma.

    The tail masses Phi(a) and 1 - Phi(b) = Phi(-b) are computed without
    cancellation, and the smaller of p and 1 - p is inverted, so far tails
    keep their precision; the final projection only absorbs rounding.
    """
    below = _normal_cdf((box.lo - centers) / sigma_c)
    above = _normal_cdf((centers - box.hi) / sigma_c)
    inside = 1.0 - below - above
    p = below + u * inside
    q = above + (1.0 - u) * inside
    z = _normal_ppf(np.minimum(p, q))
    return box.project(centers + sigma_c * np.where(p <= q, z, -z))


def _discrete_gaussian(u, centers: np.ndarray, sigma_c: float, concepts: DiscreteConcepts) -> np.ndarray:
    """Listed concepts drawn with weight exp(-|x - c|^2 / (2 sigma^2)),
    one uniform of ``u`` per center."""
    d2 = np.sum((centers[:, None, :] - concepts.points[None, :, :]) ** 2, axis=-1)
    logits = -d2 / (2.0 * sigma_c**2)
    logits -= logits.max(axis=1, keepdims=True)
    cum = np.cumsum(np.exp(logits), axis=1)
    u = np.reshape(u, len(centers)) * cum[:, -1]
    # Rows of cum are nondecreasing, so the count of entries <= u is the
    # right-side searchsorted position.
    picks = np.minimum((cum <= u[:, None]).sum(axis=1), len(concepts) - 1)
    return concepts.points[picks]


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
    n, m = state.n_agents, config.sample_size
    block = uniforms([rng], _block_width(state.setting) * m)
    cumulative = np.asarray(learning, dtype=float)[i].cumsum()[None]
    sources = np.minimum(search_rows(cumulative, block[:, m : 2 * m]), n - 1)
    e_idx, concepts, keep = _draw_rows(
        state.setting, state.values[None], config, block, sources, [i], kernel
    )
    keep = slice(None) if keep is None else keep[0]
    return Sample(e_idx[0, keep], concepts[0, keep])


def _block_width(setting: KnowledgeSetting) -> int:
    # rows of m uniforms per stream and step: 2 + l for a box, 3 for a
    # discrete space (see _draw_rows)
    return 2 + (setting.concept_dim if isinstance(setting.concepts, BoxConcepts) else 1)


def _draw_rows(setting, values, config, block, sources, agents, kernel=None, support=None):
    """Samples of the listed agents of an (R, N, n_experiences, l) stack of
    populations.  ``agents`` holds flat indices r * N + a; agent
    ``agents[k]`` reads row k of ``block`` and copies social observations
    from the flat agents ``sources[k]`` of its own population (see
    :func:`pick_sources`); ``sources`` is spent, overwritten.

    Each row of ``block`` holds (2 + w) * m uniforms of one stream, w = l
    for a box and 1 for a discrete space, read as 2 + w rows of m slots:
    ``split`` (the slot is individual when below tau), ``pick`` (the source
    agent of a social slot, the experience of an individual one) and
    ``rest`` (the experience of a social slot, the concept of an individual
    one).  Returns (k, m) experience indices, (k, m, l) concepts and the
    (k, m) mask of the observations kept, None when all are.  Under tau = 0
    no slot is individual and the ``split`` row is not read.  ``support``,
    the stack's (R, N, n_experiences) nonzero mask, may come computed.
    """
    n_exp, dim = values.shape[2:]
    flat = values.reshape(-1, n_exp, dim)
    m = config.sample_size
    box = isinstance(setting.concepts, BoxConcepts)
    agents = np.asarray(agents)
    u = block.reshape(len(agents), -1, m)

    # the products cast to integers (truncated) as they are written, with
    # no float copy of the (k, m) block
    e_idx = np.empty((len(agents), m), dtype=np.intp)
    np.multiply(u[:, 2], n_exp, out=e_idx, casting="unsafe")
    np.minimum(e_idx, n_exp - 1, out=e_idx)
    # each social slot's cell E * source + experience, written over the
    # spent sources, gathered from the flat (R * N * E, l) table
    sources *= n_exp
    sources += e_idx
    concepts = values.reshape(-1, dim).take(sources, axis=0)
    rows = slots = np.empty(0, dtype=np.intp)
    if config.tau > 0.0:  # no uniform falls below tau = 0
        rows, slots = (u[:, 0] < config.tau).nonzero()
    if len(rows):
        if kernel is None:
            kernel = experience_kernel(setting, config.sigma_e)
        cum = _exploration_weights(values, kernel, support)[agents[rows]].cumsum(axis=1)
        # rows of cum are nondecreasing, so the count of entries <= u is the
        # right-side searchsorted position
        below = cum <= (u[rows, 1, slots] * cum[:, -1])[:, None]
        picked = np.minimum(below.sum(axis=1), n_exp - 1)
        e_idx[rows, slots] = picked
        explore = _truncated_gaussian if box else _discrete_gaussian
        centers = flat[agents[rows], picked]
        concepts[rows, slots] = explore(u[rows, 2:, slots], centers, config.sigma_c, setting.concepts)
    if not config.drop_zero_social:
        return e_idx, concepts, None
    keep = concepts.any(axis=-1)
    keep[rows, slots] = True  # an individual observation is kept
    return e_idx, concepts, keep


def _exploration_weights(values: np.ndarray, kernel: np.ndarray, support=None) -> np.ndarray:
    """(R * N, E) experience weights of every agent of an (R, N, E, l)
    stack: each experience weighs its kernel affinity to the agent's
    support, and all weigh 1 for an agent that conceptualizes nothing yet.
    The products stay stacked, one per population, so a row rounds alike
    whatever the stack; one (R * N, E) @ (E, E) product would not.
    """
    if support is None:
        support = values.any(axis=-1)
    weights = support @ kernel + ~support.any(axis=-1, keepdims=True)
    return weights.reshape(-1, kernel.shape[0])


def _refit(setting, values, e_idx, concepts, keep, cells=None) -> np.ndarray:
    """Per-experience least-squares fit of K agents' samples at once.

    Row a of the (K, m) ``e_idx``, (K, m, l) ``concepts`` and (K, m)
    ``keep`` (None when every observation is kept) is the sample of agent
    a, whose table is ``values[a]``.  A sampled experience takes the
    minimizer of the summed squared distance to its observations: their
    mean for a box space (clamped as a numerical safety), the listed point
    nearest the mean for a discrete space (exact ties to the lowest concept
    index).  The others keep their value.  The samples are stacked with
    disjoint index offsets, so each agent's sums run over its own
    observations in sample order: ``cells``, the (K, 1) offsets n_exp * a,
    may come built once for a run's steps.  Returns a new array.

    Identical observations must reproduce their value bit for bit, so that
    a consensus population is exactly absorbing, but summed means round.
    So each sampled cell first takes one of its observations, and only a
    cell where some observation differs from it takes the mean.
    """
    n, n_exp, dim = values.shape
    if cells is None:
        cells = n_exp * np.arange(n)[:, None]
    cells, observed = (e_idx + cells).reshape(-1), concepts.reshape(-1, dim)
    if keep is not None:  # by take: a boolean-mask gather of (K, m) rows is far slower
        kept = np.flatnonzero(keep)
        cells, observed = cells.take(kept), observed.take(kept, axis=0)
    new_values = np.array(values, copy=True)
    table = new_values.reshape(-1, dim)
    differs = np.zeros(len(cells), dtype=bool)
    for column, c in zip(table.T, observed.T):
        column[cells] = c  # of a cell's observations, the last written stays
        differs |= column.take(cells) != c
    divided = np.flatnonzero(np.bincount(cells, weights=differs, minlength=len(table)) > 0.0)
    if len(divided):
        counts = np.bincount(cells, minlength=len(table)).take(divided)
        means = np.empty((len(divided), dim))
        for mean, c in zip(means.T, observed.T):
            sums = np.bincount(cells, weights=c, minlength=len(table))
            np.divide(sums.take(divided), counts, out=mean)
        # a box keeps componentwise means (the projection is numerical
        # safety only); a discrete space takes the listed point nearest it
        table[divided] = setting.concepts.project(means)
    return new_values


class StepPlan(NamedTuple):
    """What every step of a run shares, built once for the run by
    :func:`step_plan` for (R, N, E) = ``shape`` stacks: the validated
    ``structure``, its support ``table`` and the ``entries`` of the
    structure on it, the source search's
    :func:`~epidyn.sampling.stream_offsets` (``start``, ``base``,
    ``columns``), the refit's ``cells`` offsets, one per agent of the
    stack, and the (R, N, k) ``scratch`` on the table that each step's
    credibility, learning and cumulative sums are written to in turn."""

    shape: Tuple[int, int, int]
    structure: np.ndarray
    table: SupportTable
    entries: np.ndarray
    start: np.ndarray
    base: np.ndarray
    columns: np.ndarray
    cells: np.ndarray
    scratch: np.ndarray


def step_plan(structure: np.ndarray, n_pops: int, n_exp: int) -> StepPlan:
    """The :class:`StepPlan` of steps of (n_pops, N, n_exp, l) stacks
    under an already validated ``structure``."""
    n = len(structure)
    table = support_table(structure)
    entries = table.entries(structure)
    offsets = stream_offsets(n_pops * n, table)
    cells = n_exp * np.arange(n_pops * n)[:, None]
    scratch = np.empty((n_pops,) + table.agents.shape)
    return StepPlan((n_pops, n, n_exp), structure, table, entries, *offsets, cells, scratch)


def _checked_structure(structure, n: int) -> np.ndarray:
    # the validated (n, n) structure (MatrixError), or ConfigError on its shape
    G = np.asarray(structure, dtype=float)
    if G.shape != (n, n):
        raise ConfigError(f"structure matrix has shape {G.shape} for {n} agents")
    return validate_structure(G)


def step(
    state: PopulationState,
    config: SimulationConfig,
    structure,
    landscape: LikelihoodLandscape,
    rngs: Sequence[np.random.Generator],
    kernel: Optional[np.ndarray] = None,
    plan: Optional[StepPlan] = None,
) -> PopulationState:
    """One synchronous update from the time-t snapshot: rebuild credibility
    and the learning matrix, then resample and refit every agent.

    ``state.values`` is one (N, E, l) population, the R = 1 case, or an
    (R, N, E, l) stack of R populations under the same structure; agent a
    of population r draws from ``rngs[r * N + a]``, one block of uniforms
    per step from each generator of a list (a run reads them ahead).
    Credibility, learning and the source search work on the structure's
    support table, the entries of each row's support.  ``plan``, the run's
    :func:`step_plan` of this ``structure``, holds the table, the
    structure validated and the scratch array for all the run's steps;
    without one, the structure is validated here (MatrixError) and the
    plan built for this step alone.
    """
    values = state.values
    stack = values.reshape((-1,) + values.shape[-3:])
    n_pops, n, n_exp = stack.shape[:3]
    m = config.sample_size
    if plan is None:
        plan = step_plan(_checked_structure(structure, n), n_pops, n_exp)
    elif plan.structure is not structure or plan.shape != stack.shape[:3]:
        raise ConfigError("the plan was built for another structure or stack")
    if len(rngs) != n_pops * n:
        raise ConfigError("one random stream per agent required")
    table = plan.table
    # the agents' nonzero masks, for the credibility, likelihoods and exploration
    support = np.logical_or.reduce(stack != 0.0, axis=-1)
    cred = credibility_from_values(
        state.setting, stack, landscape, config.c_min, table, plan.scratch, support
    )
    learning = compute_social_learning(plan.entries, cred, cred, table, checked=True)
    offsets, cells = (plan.start, plan.base, plan.columns), plan.cells
    del cred, plan  # a step's own plan is not held through the draws
    block = uniforms(rngs, _block_width(state.setting) * m)
    sources = pick_sources(learning, block[:, m : 2 * m], table, offsets)
    del learning  # spent
    e_idx, concepts, keep = _draw_rows(
        state.setting, stack, config, block, sources, np.arange(n_pops * n), kernel, support
    )
    del block, sources  # spent: not held through the refit
    new_values = _refit(
        state.setting, stack.reshape((-1,) + values.shape[-2:]), e_idx, concepts, keep, cells
    )
    return PopulationState._trusted(state.setting, new_values.reshape(values.shape), state.t + 1)


# Cap on R * N * N for one chunk of replicates, so that its credibility rows
# (at most one per agent) and its (R, N, k) scratch stay within 8 MB.
CHUNK_FLOATS = 1 << 20


def run(
    config: SimulationConfig,
    structure,
    landscape: LikelihoodLandscape,
    initial: PopulationState,
    re_target: Optional[np.ndarray] = None,
    n_jobs: int = 1,
) -> "RunResult":
    """Replicated simulation producing the metric trace.

    Each replicate runs the dynamic for ``config.horizon`` steps from the
    initial state and records the metrics at t = 0 and after every step.
    Contiguous chunks of ceil(R / ``n_jobs``) replicates, cut to R * N * N
    <= ``CHUNK_FLOATS``, step as one (R, N, E, l) stack, in worker
    processes when ``n_jobs`` > 1.  Streams derive from (seed, replicate)
    and each population of a stack rounds as it would alone, so the trace
    does not depend on the replicate count, the chunks or their order.
    The structure's shape and entries are checked before any stream is
    built (ConfigError, MatrixError).
    """
    config.validate()
    structure = _checked_structure(structure, initial.n_agents)
    args = (config, structure, landscape, initial, re_target)
    reps = config.replicates
    size = max(1, min(-(-reps // max(1, n_jobs)), CHUNK_FLOATS // initial.n_agents**2))
    chunks = [(range(s, min(s + size, reps)), *args) for s in range(0, reps, size)]
    if n_jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(chunk) for chunk in chunks]
    grid = np.concatenate([grid for grid, _ in results])
    finals = np.concatenate([final for _, final in results])
    return RunResult(MetricTrace(grid), finals)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Metric trace plus the final (replicates, N, n_experiences, l) value
    tensor, one final population per replicate."""

    trace: MetricTrace
    final_values: np.ndarray

    def equilibria(self) -> np.ndarray:
        """Across-agent mean function of each replicate's final state."""
        return self.final_values.mean(axis=1)


# Cap on the bytes of the recorded states a run holds for one trace_record
# call: 16 steps of the test3-creation stack (2 x 10 x 25 floats); a larger
# state is a block of one.
TRACE_BLOCK_BYTES = 1 << 16


def _run_chunk(packed):
    # the replicates of range ``reps`` as one stack; its (R, T + 1, 5) grid
    reps, config, structure, landscape, initial, re_target = packed
    horizon = config.horizon
    rngs = ReadAhead(
        [g for r in reps for g in agent_streams(config.seed, r, initial.n_agents)],
        horizon,
    )
    kernel = experience_kernel(initial.setting, config.sigma_e) if config.tau > 0.0 else None
    plan = step_plan(structure, len(reps), initial.values.shape[1])
    stack = np.repeat(initial.values[None], len(reps), axis=0)
    state = PopulationState._trusted(initial.setting, stack, initial.t)
    grid = np.empty((len(reps), horizon + 1, len(TRACE_COLUMNS)))
    # the recorded states of a block of steps, traced in one call when the
    # block is full and at the end; a state past the cap is a block of one
    size = max(1, min(horizon + 1, TRACE_BLOCK_BYTES // stack.nbytes))
    history = np.empty((size,) + stack.shape)
    times = np.empty((size, 1))
    for k in range(horizon + 1):
        if k:
            state = step(state, config, structure, landscape, rngs, kernel=kernel, plan=plan)
        i = k % size
        history[i], times[i] = state.values, state.t
        if i == size - 1 or k == horizon:
            block = trace_record(times[: i + 1], reps, history[: i + 1], re_target)
            grid[:, k - i : k + 1] = block.swapaxes(0, 1)
    return grid, state.values
