import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidyn import (
    BoxConcepts,
    ConfigError,
    ConstantLikelihood,
    DiscreteConcepts,
    GaussianPeakLikelihood,
    KnowledgeError,
    KnowledgeFunction,
    KnowledgeSetting,
    MatrixError,
    PopulationState,
    Sample,
    SimulationConfig,
    TabularLikelihood,
    agent_streams,
    compute_credibility,
    compute_social_learning,
    draw_sample,
    experience_kernel,
    grid_setting,
    preset,
    run,
    step,
)
import epidyn.dynamics as dynamics
import epidyn.sampling as sampling
from epidyn.dynamics import (
    _discrete_gaussian,
    _draw_rows,
    _exploration_weights,
    _normal_cdf,
    _normal_ppf,
    _refit,
    _truncated_gaussian,
)
from epidyn.influence import ZERO_ROW_GUARD, _key_rows, credibility_from_values
from epidyn.metrics import trace_record


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def two_agent_state(a=2.0, b=6.0, n_exp=5):
    setting = grid_setting(n_exp)
    return PopulationState(
        [
            KnowledgeFunction.constant(setting, a),
            KnowledgeFunction.constant(setting, b),
        ]
    )


def social_draws(i, state, learning, rng, m):
    """m social observations of agent i: experience indices and concepts."""
    sample = draw_sample(i, state, SimulationConfig(tau=0.0, sample_size=m), learning, rng)
    return sample.experience_indices, sample.concepts


def individual_draws(i, state, rng, m, sigma_e=1.0, sigma_c=0.1):
    """m self-exploration observations of agent i."""
    cfg = SimulationConfig(tau=1.0, sample_size=m, sigma_e=sigma_e, sigma_c=sigma_c)
    sample = draw_sample(i, state, cfg, np.eye(state.n_agents), rng)
    return sample.experience_indices, sample.concepts


def refit_one(k_prev, sample):
    """The population refit with N = 1: agent k_prev's new table."""
    keep = np.ones((1, len(sample)), dtype=bool)
    new = _refit(
        k_prev.setting,
        k_prev.values[None],
        sample.experience_indices[None],
        sample.concepts[None],
        keep,
    )
    return new[0]


class TestDrawSocial:
    def test_single_agent_echoes_own_table(self):
        setting = grid_setting(4)
        k = KnowledgeFunction(setting, [1.0, 2.0, 3.0, 4.0])
        state = PopulationState([k])
        e, c = social_draws(0, state, np.array([[1.0]]), rng_for(1), 50)
        assert np.array_equal(c, k.values[e])

    def test_point_mass_row_sources_one_agent_uniform_experiences(self):
        # degenerate row always picks agent 0; experience counts should pass
        # a 3-sigma multinomial check over 10^4 draws
        state = two_agent_state(3.0, -7.0, n_exp=5)
        learning = np.array([[1.0, 0.0], [1.0, 0.0]])
        n = 10_000
        e, c = social_draws(1, state, learning, rng_for(2), n)
        assert np.all(c == 3.0)  # only agent 0's table can be sourced
        counts = np.bincount(e, minlength=5)
        expect = n / 5
        sigma = math.sqrt(n * 0.2 * 0.8)
        assert np.all(np.abs(counts - expect) <= 3 * sigma)

    def test_consensus_state_returns_shared_concept(self):
        state = two_agent_state(4.0, 4.0)
        _, c = social_draws(0, state, np.full((2, 2), 0.5), rng_for(3), 20)
        assert np.all(c == 4.0)

    def test_zero_concepts_are_reported(self):
        setting = grid_setting(2)
        state = PopulationState([KnowledgeFunction.zero(setting)])
        _, c = social_draws(0, state, np.array([[1.0]]), rng_for(4), 1)
        assert np.all(c == 0.0)


class TestDrawIndividual:
    def test_newborn_falls_back_to_uniform_experiences(self):
        setting = grid_setting(5)
        state = PopulationState([KnowledgeFunction.zero(setting)])
        n = 10_000
        e, c = individual_draws(0, state, rng_for(5), n, sigma_e=1.0, sigma_c=0.1)
        counts = np.bincount(e, minlength=5)
        sigma = math.sqrt(n * 0.2 * 0.8)
        assert np.all(np.abs(counts - n / 5) <= 3 * sigma)
        # concepts hover around the origin with spread sigma_c
        cs = c[:, 0]
        assert abs(cs.mean()) <= 3 * 0.1 / math.sqrt(n) + 1e-3
        assert cs.std() == pytest.approx(0.1, rel=0.05)

    def test_narrow_experience_kernel_concentrates(self):
        setting = grid_setting(5)
        values = np.zeros((5, 1))
        values[2, 0] = 1.0  # only experience index 2 conceptualized
        state = PopulationState([KnowledgeFunction(setting, values)])
        e, _ = individual_draws(0, state, rng_for(6), 300, sigma_e=1e-3, sigma_c=0.1)
        assert np.all(e == 2)

    def test_narrow_concept_kernel_recovers_current_value(self):
        setting = grid_setting(3)
        state = PopulationState([KnowledgeFunction.constant(setting, 2.5)])
        _, c = individual_draws(0, state, rng_for(7), 50, sigma_e=1.0, sigma_c=1e-9)
        assert c[:, 0] == pytest.approx(np.full(50, 2.5), abs=1e-6)

    def test_discrete_concepts_weighted_by_proximity(self):
        setting = KnowledgeSetting(
            [[0.0], [1.0]], DiscreteConcepts([[0.0], [1.0], [5.0]])
        )
        state = PopulationState(
            [KnowledgeFunction(setting, [[1.0], [1.0]])]
        )
        draws = individual_draws(0, state, rng_for(8), 2000, sigma_e=1.0, sigma_c=0.5)[1][:, 0]
        # weights at distance 0, 1, 4 with sigma_c = 0.5
        w = np.exp(-np.array([1.0, 0.0, 16.0]) / (2 * 0.25))
        p1 = w[1] / w.sum()
        got = (draws == 1.0).mean()
        assert got == pytest.approx(p1, abs=3 * math.sqrt(p1 * (1 - p1) / 2000))

    def test_draws_stay_inside_box(self):
        setting = KnowledgeSetting(
            np.arange(1.0, 4.0)[:, None],
            __import__("epidyn").BoxConcepts([-0.2], [0.2]),
        )
        state = PopulationState([KnowledgeFunction.constant(setting, 0.19)])
        _, c = individual_draws(0, state, rng_for(9), 500, sigma_e=1.0, sigma_c=0.5)
        assert np.all((-0.2 <= c) & (c <= 0.2))


class TestDrawSample:
    def cfg(self, **kw):
        base = dict(tau=0.0, sample_size=50)
        base.update(kw)
        return SimulationConfig(**base)

    def test_tau_zero_draws_only_social(self):
        # with a newborn population, social draws are exactly zero while
        # individual draws are continuous and almost surely nonzero
        setting = grid_setting(5)
        state = PopulationState([KnowledgeFunction.zero(setting)] * 2)
        learning = np.full((2, 2), 0.5)
        sample = draw_sample(0, state, self.cfg(tau=0.0, sample_size=200), learning, rng_for(10))
        assert len(sample) == 200
        assert np.all(sample.concepts == 0.0)

    def test_tau_one_draws_only_individual(self):
        setting = grid_setting(5)
        state = PopulationState([KnowledgeFunction.zero(setting)] * 2)
        learning = np.full((2, 2), 0.5)
        sample = draw_sample(0, state, self.cfg(tau=1.0, sample_size=200), learning, rng_for(11))
        assert np.all(sample.concepts != 0.0)

    def test_individual_count_is_binomial(self):
        # total individual draws over many samples ~ Binomial(K*m, tau)
        setting = grid_setting(5)
        state = PopulationState([KnowledgeFunction.zero(setting)] * 2)
        learning = np.full((2, 2), 0.5)
        cfg = self.cfg(tau=0.02, sample_size=500)
        rng = rng_for(12)
        reps = 100
        total = 0
        for _ in range(reps):
            sample = draw_sample(0, state, cfg, learning, rng)
            total += int(np.count_nonzero(np.any(sample.concepts != 0.0, axis=1)))
        n, p = reps * 500, 0.02
        z = (total - n * p) / math.sqrt(n * p * (1 - p))
        assert abs(z) <= 3.0

    def test_drop_zero_social_filters_pairs(self):
        setting = grid_setting(5)
        values = np.zeros((5, 1))
        values[0, 0] = 3.0
        state = PopulationState([KnowledgeFunction(setting, values)] * 2)
        learning = np.full((2, 2), 0.5)
        cfg = self.cfg(tau=0.0, sample_size=300, drop_zero_social=True)
        sample = draw_sample(0, state, cfg, learning, rng_for(13))
        assert 0 < len(sample) < 300
        assert np.all(sample.concepts == 3.0)
        assert np.all(sample.experience_indices == 0)

    def test_sample_length_and_pairs_iteration(self):
        state = two_agent_state()
        sample = draw_sample(
            0, state, self.cfg(sample_size=7), np.full((2, 2), 0.5), rng_for(14)
        )
        assert len(sample) == 7
        assert sample.experience_indices.shape == (7,) and sample.concepts.shape == (7, 1)


def mask_refit(setting, values, e_idx, concepts, keep):
    """The refit by boolean-mask gathers and sets that _refit replaced, kept
    as its oracle."""
    n, n_exp, dim = values.shape
    total = n * n_exp
    gidx = (e_idx + n_exp * np.arange(n)[:, None])[keep]
    gcon = concepts[keep]
    counts = np.bincount(gidx, minlength=total).astype(float)
    seen = counts > 0.0
    sums = np.stack(
        [np.bincount(gidx, weights=gcon[:, d], minlength=total) for d in range(dim)], axis=1
    )
    means = sums[seen] / counts[seen, None]
    rep = np.zeros((total, dim))
    rep[gidx] = gcon
    mismatch = np.any(gcon != rep[gidx], axis=-1)
    divided = np.bincount(gidx, weights=mismatch, minlength=total) > 0.0
    unanimous = ~divided[seen]
    means[unanimous] = rep[seen][unanimous]
    new_values = np.array(values, copy=True)
    new_values.reshape(total, dim)[seen] = setting.concepts.project(means)
    return new_values


# box concepts that make unanimous cells whose summed mean rounds (three
# 0.1s average to 0.10000000000000002) and cells that hold -0.0 beside 0.0
ROUNDING_CONCEPTS = (0.1, 0.0, -0.0, 1.0 / 3.0, -1.5)


@st.composite
def refit_inputs(draw, kinds=("box1", "box2", "discrete"), keeps=("none", "ones", "dropped"),
                 sources=None):
    """Inputs of one refit: a setting, the (N, E, l) values and the (N, m)
    experience indices, (N, m, l) concepts and (N, m) keep mask or None.
    Box values come from ``ROUNDING_CONCEPTS`` and discrete ones are listed
    points, and the observations copy the values of the first ``sources``
    agents (a random count if None), so cells are often unanimous."""
    kind, keep = draw(st.sampled_from(kinds)), draw(st.sampled_from(keeps))
    n, n_exp, m = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    experiences = np.arange(n_exp)[:, None]
    if kind == "discrete":
        points = np.array([[0.0], [1.0], [2.5], [4.0]])
        setting = KnowledgeSetting(experiences, DiscreteConcepts(points))
        values = points[rng.integers(0, 4, size=(n, n_exp))]
    else:
        dim = 1 if kind == "box1" else 2
        setting = KnowledgeSetting(experiences, BoxConcepts([-2.0] * dim, [2.0] * dim))
        values = rng.choice(ROUNDING_CONCEPTS, size=(n, n_exp, dim))
    e_idx = rng.integers(0, n_exp, size=(n, m))
    concepts = values[rng.integers(0, sources or draw(st.integers(1, n)), size=(n, m)), e_idx]
    if keep == "none":
        return setting, values, e_idx, concepts, None
    if keep == "ones":
        return setting, values, e_idx, concepts, np.ones((n, m), dtype=bool)
    keep = concepts.any(axis=-1) | (rng.random((n, m)) < 0.3)
    if draw(st.booleans()):
        keep[draw(st.integers(0, n - 1))] = False  # an agent with every slot dropped
    return setting, values, e_idx, concepts, keep


# the strategy's arguments of each oracle case
REFIT_CASES = {
    "all-kept": dict(keeps=("none", "ones")),
    "dropped": dict(keeps=("dropped",)),
    "l=2": dict(kinds=("box2",)),
    "discrete": dict(kinds=("discrete",)),
    "unanimous": dict(sources=1),  # every agent copies agent 0
}


class TestRefitOracle:
    @pytest.mark.parametrize("case", sorted(REFIT_CASES))
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_refit_equals_boolean_mask_refit(self, case, data):
        setting, values, e_idx, concepts, keep = data.draw(refit_inputs(**REFIT_CASES[case]))
        ones = np.ones(e_idx.shape, dtype=bool)
        want = mask_refit(setting, values, e_idx, concepts, ones if keep is None else keep)
        got = _refit(setting, values, e_idx, concepts, keep)
        assert got.tobytes() == want.tobytes()  # bytes, so that -0.0 and 0.0 differ

    def test_unanimous_cell_keeps_its_observation(self):
        # 3 * 0.1 / 3 rounds to 0.10000000000000002; the consensus stays exact
        assert (0.1 + 0.1 + 0.1) / 3 != 0.1
        setting = grid_setting(2)
        values = np.zeros((1, 2, 1))
        got = _refit(setting, values, np.zeros((1, 3), int), np.full((1, 3, 1), 0.1), None)
        assert got[0, 0, 0] == 0.1 and got[0, 1, 0] == 0.0

    def test_discrete_signed_zero_is_not_snapped(self):
        # a discrete table may hold -0.0, which equals the listed origin; a
        # cell observed only as -0.0 keeps it, where the boolean-mask refit
        # projects it to the origin's own bits
        setting = KnowledgeSetting([[0.0]], DiscreteConcepts([[0.0], [1.0]]))
        got = _refit(setting, np.ones((1, 1, 1)), np.zeros((1, 2), int),
                     np.full((1, 2, 1), -0.0), None)
        assert got[0, 0, 0] == 0.0 and math.copysign(1.0, got[0, 0, 0]) == -1.0


def split_scan_draw_rows(setting, values, config, block, sources, agents, kernel=None, support=None):
    """The draws with the split scan run and the keep mask built whatever
    tau and drop_zero_social are: the general path that _draw_rows
    shortens, kept as its oracle."""
    n_exp, dim = values.shape[2:]
    flat = values.reshape(-1, n_exp, dim)
    m = config.sample_size
    agents = np.asarray(agents)
    u = block.reshape(len(agents), -1, m)
    individual = u[:, 0] < config.tau
    e_idx = np.minimum((u[:, 2] * n_exp).astype(np.intp), n_exp - 1)
    concepts = flat[sources, e_idx]
    rows, slots = individual.nonzero()
    if len(rows):
        if kernel is None:
            kernel = experience_kernel(setting, config.sigma_e)
        cum = _exploration_weights(values, kernel, support)[agents[rows]].cumsum(axis=1)
        below = cum <= (u[rows, 1, slots] * cum[:, -1])[:, None]
        picked = np.minimum(below.sum(axis=1), n_exp - 1)
        e_idx[rows, slots] = picked
        box = isinstance(setting.concepts, BoxConcepts)
        explore = _truncated_gaussian if box else _discrete_gaussian
        centers = flat[agents[rows], picked]
        concepts[rows, slots] = explore(u[rows, 2:, slots], centers, config.sigma_c, setting.concepts)
    if config.drop_zero_social:
        return e_idx, concepts, individual | concepts.any(axis=-1)
    return e_idx, concepts, np.ones(individual.shape, dtype=bool)


class TestSkippedPasses:
    """Under tau = 0 no slot is individual, and without drop_zero_social
    no slot is dropped: the draws and the step skip the split scan and the
    keep mask, and give the bits of the general path."""

    def stack(self, kind, seed):
        # an (R, N, E, l) stack with zero entries, its setting and landscape
        rng = np.random.default_rng(seed)
        experiences = np.arange(5)[:, None]
        if kind == "discrete":
            points = np.array([[0.0], [1.0], [2.5], [4.0]])
            setting = KnowledgeSetting(experiences, DiscreteConcepts(points))
            values = points[rng.integers(0, 4, size=(2, 6, 5))]
            landscape = TabularLikelihood(rng.uniform(0.1, 1.0, size=(5, 4)))
        else:
            setting = KnowledgeSetting(experiences, BoxConcepts([-2.0, -2.0], [2.0, 2.0]))
            values = rng.uniform(-2.0, 2.0, size=(2, 6, 5, 2))
            values[rng.random((2, 6, 5)) < 0.3] = 0.0
            landscape = GaussianPeakLikelihood([0.5, 0.5], 2.0)
        return setting, values, landscape

    @pytest.mark.parametrize("kind", ["box", "discrete"])
    @pytest.mark.parametrize("tau", [0.0, 0.3])
    @pytest.mark.parametrize("drop", [False, True])
    def test_draws_equal_the_split_scan(self, kind, tau, drop):
        setting, values, _ = self.stack(kind, 3)
        cfg = SimulationConfig(tau=tau, sample_size=40, sigma_c=0.7, drop_zero_social=drop)
        block = np.random.default_rng(4).random((12, 3 * 40))
        sources = np.random.default_rng(5).integers(0, 6, size=(12, 40))
        sources[6:] += 6  # population 1 copies its own agents
        want = split_scan_draw_rows(setting, values, cfg, block, sources, np.arange(12))
        got = _draw_rows(setting, values, cfg, block, sources.copy(), np.arange(12))
        for g, w in zip(got[:2], want[:2]):
            assert g.tobytes() == w.tobytes()
        assert (got[2] is None) == (not drop)
        keep = np.ones((12, 40), dtype=bool) if got[2] is None else got[2]
        assert np.array_equal(keep, want[2])

    @pytest.mark.parametrize("kind", ["box", "discrete"])
    @pytest.mark.parametrize("tau", [0.0, 0.3])
    def test_step_equals_the_general_path(self, kind, tau, monkeypatch):
        setting, values, landscape = self.stack(kind, 7)
        state = PopulationState._trusted(setting, values, 0)
        gamma = np.random.default_rng(8).uniform(0.0, 1.0, size=(6, 6))
        cfg = SimulationConfig(tau=tau, sample_size=30, sigma_c=0.7)
        got = step(state, cfg, gamma, landscape, agent_streams(9, 0, 12))
        monkeypatch.setattr(dynamics, "_draw_rows", split_scan_draw_rows)
        want = step(state, cfg, gamma, landscape, agent_streams(9, 0, 12))
        assert got.values.tobytes() == want.values.tobytes()


class TestLeastSquaresUpdate:
    def test_mean_plus_retention(self):
        setting = grid_setting(2)
        k_prev = KnowledgeFunction(setting, [0.0, 9.0])
        sample = Sample([0, 0], [[4.0], [6.0]])
        k = refit_one(k_prev, sample)
        assert k[0, 0] == 5.0
        assert k[1, 0] == 9.0

    def test_observations_matching_prev_are_a_fixed_point(self):
        setting = grid_setting(3)
        k_prev = KnowledgeFunction(setting, [1.0, 2.0, 3.0])
        sample = Sample([0, 1, 2, 1], [[1.0], [2.0], [3.0], [2.0]])
        assert np.array_equal(refit_one(k_prev, sample), k_prev.values)

    def test_discrete_majority_vote_via_squared_distance(self):
        setting = KnowledgeSetting(
            [[0.0]], DiscreteConcepts([[0.0], [1.0], [2.0]])
        )
        k_prev = KnowledgeFunction(setting, [[0.0]])
        sample = Sample([0, 0, 0], [[1.0], [1.0], [2.0]])
        # candidate sums of squared distances: 0 -> 6, 1 -> 1, 2 -> 2
        assert refit_one(k_prev, sample)[0, 0] == 1.0

    def test_discrete_tie_breaks_to_lowest_index(self):
        setting = KnowledgeSetting(
            [[0.0]], DiscreteConcepts([[0.0], [1.0], [3.0]])
        )
        k_prev = KnowledgeFunction(setting, [[0.0]])
        # mean of observations is 2, equidistant from 1 and 3
        sample = Sample([0, 0], [[1.0], [3.0]])
        assert refit_one(k_prev, sample)[0, 0] == 1.0

    def test_empty_sample_returns_previous(self):
        k_prev = KnowledgeFunction(grid_setting(2), [1.0, 2.0])
        sample = Sample(np.empty(0, dtype=int), np.empty((0, 1)))
        assert np.array_equal(refit_one(k_prev, sample), k_prev.values)

    def test_means_clamped_to_box(self):
        setting = KnowledgeSetting(
            [[0.0]], __import__("epidyn").BoxConcepts([-1.0], [1.0])
        )
        k_prev = KnowledgeFunction(setting, [[0.0]])
        sample = Sample([0], [[1.0]])
        assert refit_one(k_prev, sample)[0, 0] == 1.0


class TestStep:
    def test_consensus_is_absorbing_exactly(self):
        setting = grid_setting(5)
        state = PopulationState([KnowledgeFunction.constant(setting, 3.7)] * 4)
        cfg = SimulationConfig(tau=0.0, sample_size=20)
        gamma = np.ones((4, 4))
        out = step(state, cfg, gamma, ConstantLikelihood(1.0), agent_streams(0, 0, 4))
        assert np.array_equal(out.values, state.values)
        assert out.t == state.t + 1

    def test_single_agent_is_absorbing(self):
        state = PopulationState([KnowledgeFunction.constant(grid_setting(3), -2.0)])
        cfg = SimulationConfig(tau=0.0, sample_size=10)
        out = step(state, cfg, np.array([[1.0]]), ConstantLikelihood(1.0), agent_streams(0, 0, 1))
        assert np.array_equal(out.values, state.values)

    def test_values_remain_in_population_envelope(self):
        # pure social learning can never escape current min/max per component
        rng = np.random.default_rng(15)
        setting = grid_setting(4)
        values = rng.uniform(-10, 10, size=(5, 4, 1))
        state = PopulationState.from_values(setting, values)
        cfg = SimulationConfig(tau=0.0, sample_size=30)
        gamma = rng.uniform(0.1, 1.0, size=(5, 5))
        rngs = agent_streams(3, 0, 5)
        for _ in range(10):
            lo, hi = state.values.min(axis=0), state.values.max(axis=0)
            state = step(state, cfg, gamma, ConstantLikelihood(1.0), rngs)
            assert np.all(state.values >= lo - 1e-12)
            assert np.all(state.values <= hi + 1e-12)

    def test_mean_consensus_distance_decreases(self):
        # two-agent symmetric blend: averaged over replicates the distance
        # to shared knowledge shrinks every step over t in [0, 20]
        from epidyn import consensus_distance

        gamma = np.array([[0.5, 0.5], [0.5, 0.5]])
        cfg = SimulationConfig(tau=0.0, sample_size=50, c_min=0.1, horizon=20, replicates=100)
        state = two_agent_state()
        result = run(cfg, gamma, ConstantLikelihood(1.0), state)
        means = result.trace.mean_column("d_consensus")
        assert np.all(np.diff(means) < 0.0)

    def test_step_equals_per_agent_least_squares(self):
        # the batched refit inside step must match drawing the same samples
        # from cloned streams and applying the single-agent update
        from epidyn import compute_credibility, compute_social_learning

        rng = np.random.default_rng(44)
        setting = grid_setting(6)
        values = rng.uniform(-10, 10, size=(4, 6, 1))
        state = PopulationState.from_values(setting, values)
        gamma = rng.uniform(0.1, 1.0, size=(4, 4))
        cfg = SimulationConfig(tau=0.3, sample_size=25, c_min=0.05)
        landscape = ConstantLikelihood(0.9)

        out = step(state, cfg, gamma, landscape, agent_streams(21, 5, 4))

        cred = compute_credibility(state.functions, landscape, cfg.c_min)
        learning = compute_social_learning(gamma, cred)
        kernel = experience_kernel(setting, cfg.sigma_e)
        rngs = agent_streams(21, 5, 4)
        for i in range(4):
            sample = draw_sample(i, state, cfg, learning, rngs[i], kernel=kernel)
            assert np.array_equal(out.functions[i].values, refit_one(state.functions[i], sample))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["box1", "box2", "discrete"]),
        n=st.integers(1, 6),
        n_exp=st.integers(1, 5),
        m=st.integers(1, 12),
        tau=st.sampled_from([0.0, 0.3, 1.0]),
        drop_zero_social=st.booleans(),
        c_min=st.sampled_from([0.0, 0.05]),
        newborn=st.lists(st.booleans(), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_equals_per_agent_draws_property(
        self, kind, n, n_exp, m, tau, drop_zero_social, c_min, newborn, seed
    ):
        # the population step must match drawing each agent's sample from a
        # cloned stream and refitting it alone, for every concept space
        rng = np.random.default_rng(seed)
        experiences = np.arange(n_exp)[:, None]
        if kind == "discrete":
            points = np.array([[0.0], [1.0], [2.5], [4.0]])
            setting = KnowledgeSetting(experiences, DiscreteConcepts(points))
            values = points[rng.integers(0, 4, size=(n, n_exp))]
            landscape = TabularLikelihood(rng.uniform(0.0, 1.0, size=(n_exp, 4)))
        else:
            dim = 1 if kind == "box1" else 2
            setting = KnowledgeSetting(experiences, BoxConcepts([-2.0] * dim, [2.0] * dim))
            values = rng.uniform(-2.0, 2.0, size=(n, n_exp, dim))
            values[rng.random((n, n_exp)) < 0.3] = 0.0
            landscape = GaussianPeakLikelihood([0.5] * dim, 2.0)
        values[np.asarray(newborn[:n])] = 0.0
        state = PopulationState.from_values(setting, values)
        gamma = rng.uniform(0.0, 1.0, size=(n, n))
        cfg = SimulationConfig(
            tau=tau, sample_size=m, sigma_c=0.7, c_min=c_min, drop_zero_social=drop_zero_social
        )

        out = step(state, cfg, gamma, landscape, agent_streams(seed, 1, n))

        learning = compute_social_learning(
            gamma, compute_credibility(state.functions, landscape, cfg.c_min)
        )
        assert np.all(learning >= 0.0)
        assert np.all(np.abs(learning.sum(axis=1) - 1.0) <= 1e-12)
        rngs = agent_streams(seed, 1, n)
        for i in range(n):
            sample = draw_sample(i, state, cfg, learning, rngs[i])
            assert np.array_equal(out.values[i], refit_one(state.functions[i], sample))
        assert setting.concepts.contains(out.values.reshape(-1, setting.concept_dim)).all()

    def test_rejects_mismatched_shapes(self):
        state = two_agent_state()
        cfg = SimulationConfig()
        with pytest.raises(ConfigError):
            step(state, cfg, np.ones((3, 3)), ConstantLikelihood(1.0), agent_streams(0, 0, 2))
        with pytest.raises(ConfigError):
            step(state, cfg, np.ones((2, 2)), ConstantLikelihood(1.0), agent_streams(0, 0, 3))

    @pytest.mark.parametrize("entry", [-1.0, math.nan, math.inf])
    def test_rejects_bad_structure_entries(self, entry):
        gamma = np.ones((2, 2))
        gamma[0, 1] = entry
        with pytest.raises(MatrixError):
            step(two_agent_state(), SimulationConfig(), gamma, ConstantLikelihood(1.0),
                 agent_streams(0, 0, 2))

    @pytest.mark.parametrize("n_pops", [1, 3])
    def test_arguments_are_not_written(self, n_pops):
        rng = np.random.default_rng(n_pops)
        setting = grid_setting(5)
        values = rng.uniform(-10, 10, size=(n_pops, 4, 5, 1))
        values[rng.random((n_pops, 4, 5)) < 0.3] = 0.0
        # an (R, N, E, l) stack, as run steps it; R = 1 is one population
        state = PopulationState._trusted(setting, values if n_pops > 1 else values[0], 0)
        gamma = rng.uniform(0.0, 1.0, size=(4, 4))
        gamma[1] = 0.0  # a dead learning row
        kernel = experience_kernel(setting, 1.0)
        kept = [a.copy() for a in (state.values, gamma, kernel)]
        cfg = SimulationConfig(tau=0.3, sample_size=6, c_min=0.0)
        step(state, cfg, gamma, GaussianPeakLikelihood([1.0], 4.0),
             agent_streams(3, 0, 4 * n_pops), kernel)
        for a, b in zip((state.values, gamma, kernel), kept):
            assert np.array_equal(a, b)

    def test_step_computes_the_support_mask_once(self, monkeypatch):
        # credibility, the likelihoods and exploration share the step's one
        # nonzero mask of the stack
        rng = np.random.default_rng(8)
        setting = grid_setting(5)
        values = rng.uniform(-10, 10, size=(3, 4, 5, 1))
        values[rng.random((3, 4, 5)) < 0.3] = 0.0
        state = PopulationState._trusted(setting, values, 0)
        landscape = GaussianPeakLikelihood([1.0], 4.0)
        seen = []
        likelihood, weights = GaussianPeakLikelihood.per_population, dynamics._exploration_weights
        monkeypatch.setattr(
            GaussianPeakLikelihood, "per_population",
            lambda self, s, v, support=None: seen.append(support) or likelihood(self, s, v, support),
        )
        monkeypatch.setattr(
            dynamics, "_exploration_weights",
            lambda v, k, support=None: seen.append(support) or weights(v, k, support),
        )
        cfg = SimulationConfig(tau=0.5, sample_size=6, c_min=0.0)
        step(state, cfg, np.ones((4, 4)), landscape, agent_streams(3, 0, 12))
        assert len(seen) == 2 and seen[0] is not None and seen[0] is seen[1]
        assert np.array_equal(seen[0], values.any(axis=-1))

    @pytest.mark.parametrize("n_pops", [1, 3])
    def test_reused_scratch_changes_nothing(self, n_pops):
        # a run hands one plan, and so one scratch array, to all its steps;
        # what one step leaves there must not reach the next
        rng = np.random.default_rng([n_pops, 5])
        setting = grid_setting(5)
        values = rng.uniform(-10, 10, size=(n_pops, 4, 5, 1))
        values[rng.random((n_pops, 4, 5)) < 0.3] = 0.0
        fresh = reused = PopulationState._trusted(setting, values if n_pops > 1 else values[0], 0)
        gamma = rng.uniform(0.0, 1.0, size=(4, 4))
        gamma[1] = 0.0  # a dead learning row
        cfg = SimulationConfig(tau=0.3, sample_size=6, c_min=0.0)
        landscape = GaussianPeakLikelihood([1.0], 4.0)
        kernel = experience_kernel(setting, 1.0)
        rngs_a, rngs_b = (agent_streams(3, 0, 4 * n_pops) for _ in range(2))
        plan = dynamics.step_plan(gamma, n_pops, 5)
        # every step writes all of the scratch before it reads it, and the
        # dead row's learning entries are all zero on the table
        plan.scratch[...] = np.nan
        for _ in range(3):
            fresh = step(fresh, cfg, gamma, landscape, rngs_a, kernel)
            reused = step(reused, cfg, gamma, landscape, rngs_b, kernel, plan=plan)
            assert np.array_equal(fresh.values, reused.values)
            assert not plan.scratch[:, 1].any()

    def crowd_step_peak(self, structure):
        # tracemalloc peak of one N = 400 step on its plan, which must be on
        # a full table; ``structure(rng)`` gives the structure
        rng = np.random.default_rng(73)
        setting = grid_setting(25)
        state = PopulationState._trusted(setting, rng.uniform(0.5, 10, size=(400, 25, 1)), 0)
        gamma = structure(rng)
        cfg = SimulationConfig(tau=0.0, sample_size=50, c_min=0.0)
        landscape = GaussianPeakLikelihood([1.0], 1.0)
        plan = dynamics.step_plan(gamma, 1, 25)
        assert plan.table.full
        rngs = agent_streams(5, 0, 400)
        tracemalloc.start()
        try:
            step(state, cfg, gamma, landscape, rngs, plan=plan)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_crowd_step_with_scratch_allocates_only_the_penalty(self):
        # N = 400, every experience conceptualized, as in a crowd step, under
        # a complete structure.  With the run's plan, credibility, learning
        # and their cumulative sums go to its (R, N, N) buffer and take no
        # (N, N) array of their own (1.22 MiB each); the agents share one
        # penalty row, and the step peaks at 1.62 MiB.
        peak = self.crowd_step_peak(lambda rng: rng.uniform(0.0, 1.0, size=(400, 400)))
        assert peak < 2.5 * 2**20

    def test_crowd_step_without_self_influence_peaks_as_a_complete_one(self):
        # 1 - I: the widest row covers N - 1 agents, so the table is the row
        # layout, read in place, and not an (N, N - 1) gathered table (whose
        # step peaked at 4.2 MiB)
        assert self.crowd_step_peak(lambda rng: 1.0 - np.eye(400)) < 2.5 * 2**20

    def test_ring_crowd_step_with_table_peaks_below_one_mib(self):
        # N = 400 on a ring lattice (self + 8 neighbours each side), as in the
        # crowd workload.  With the run's plan, credibility, learning and the
        # source search work on the (N, 17) table and take no (N, N) array;
        # the largest arrays left are the step's block of uniforms and the
        # (N, m) draws.
        rng = np.random.default_rng(73)
        setting = grid_setting(25)
        state = PopulationState._trusted(setting, rng.uniform(0.5, 10, size=(400, 25, 1)), 0)
        gamma = ring_structure(400, 8)
        cfg = SimulationConfig(tau=0.0, sample_size=50, c_min=0.0)
        landscape = GaussianPeakLikelihood([6.0], 10.0)
        plan = dynamics.step_plan(gamma, 1, 25)
        rngs = agent_streams(5, 0, 400)
        tracemalloc.start()
        try:
            step(state, cfg, gamma, landscape, rngs, plan=plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the run's one buffer is on the table
        assert plan.scratch.shape == (1, 400, 17)

    def test_structure_validated_once_per_step(self, monkeypatch):
        import epidyn.dynamics as dynamics
        import epidyn.influence as influence

        calls = []
        check = influence.validate_structure
        for module in (dynamics, influence):
            monkeypatch.setattr(module, "validate_structure", lambda g: calls.append(1) or check(g))
        step(two_agent_state(), SimulationConfig(), np.ones((2, 2)), ConstantLikelihood(1.0),
             agent_streams(0, 0, 2))
        assert len(calls) == 1

    def test_structure_validated_once_per_table_step(self, monkeypatch):
        import epidyn.influence as influence

        calls = []
        check = influence.validate_structure
        for module in (dynamics, influence):
            monkeypatch.setattr(module, "validate_structure", lambda g: calls.append(1) or check(g))
        gamma = ring_structure(6, 1)
        values = np.linspace(-5.0, 5.0, 18).reshape(6, 3)
        state = PopulationState.from_values(grid_setting(3), values)
        step(state, SimulationConfig(), gamma, ConstantLikelihood(1.0), agent_streams(0, 0, 6))
        assert len(calls) == 1
        gamma[0, 3] = math.nan  # off the table: still refused
        with pytest.raises(MatrixError):
            step(state, SimulationConfig(), gamma, ConstantLikelihood(1.0),
                 agent_streams(0, 0, 6))


class TestRun:
    def small_cfg(self, **kw):
        base = dict(tau=0.0, sample_size=10, horizon=5, replicates=3, seed=42)
        base.update(kw)
        return SimulationConfig(**base)

    def test_identical_seeds_reproduce_bitwise(self):
        state = two_agent_state()
        gamma = np.array([[0.7, 0.3], [0.3, 0.7]])
        a = run(self.small_cfg(), gamma, ConstantLikelihood(1.0), state)
        b = run(self.small_cfg(), gamma, ConstantLikelihood(1.0), state)
        assert np.array_equal(a.trace.rows, b.trace.rows, equal_nan=True)
        assert np.array_equal(a.final_values, b.final_values)

    def test_first_replicate_stream_independent_of_count(self):
        state = two_agent_state()
        gamma = np.array([[0.7, 0.3], [0.3, 0.7]])
        one = run(self.small_cfg(replicates=1), gamma, ConstantLikelihood(1.0), state)
        two = run(self.small_cfg(replicates=2), gamma, ConstantLikelihood(1.0), state)
        assert np.array_equal(one.trace.replicate(0), two.trace.replicate(0), equal_nan=True)

    def test_trace_covers_initial_state_and_every_step(self):
        state = two_agent_state()
        gamma = np.full((2, 2), 0.5)
        result = run(self.small_cfg(horizon=7), gamma, ConstantLikelihood(1.0), state)
        assert list(result.trace.times) == list(range(8))
        assert result.trace.rows.shape == (3 * 8, 5)

    def test_trace_times_count_on_from_the_initial_time(self):
        state = PopulationState.from_values(grid_setting(5), [[2.0] * 5, [6.0] * 5], t=5)
        gamma = np.full((2, 2), 0.5)
        cfg = self.small_cfg(horizon=3, replicates=2)
        result = run(cfg, gamma, ConstantLikelihood(1.0), state)
        assert np.array_equal(result.trace.rows[:, 0], [5, 6, 7, 8] * 2)
        rows, _ = per_replicate_run(cfg, gamma, ConstantLikelihood(1.0), state, None)
        assert np.array_equal(result.trace.rows, rows, equal_nan=True)

    @pytest.mark.parametrize("n", [3, 1])
    def test_structure_of_another_size_refused_before_any_stream(self, monkeypatch, n):
        built = []
        monkeypatch.setattr(dynamics, "agent_streams", lambda *args: built.append(args))
        message = rf"^structure matrix has shape \({n}, {n}\) for 2 agents$"
        with pytest.raises(ConfigError, match=message):
            run(self.small_cfg(), np.ones((n, n)), ConstantLikelihood(1.0), two_agent_state())
        assert built == []

    def test_parallel_matches_sequential(self):
        state = two_agent_state()
        gamma = np.array([[0.7, 0.3], [0.3, 0.7]])
        seq = run(self.small_cfg(replicates=4), gamma, ConstantLikelihood(1.0), state)
        par = run(self.small_cfg(replicates=4), gamma, ConstantLikelihood(1.0), state, n_jobs=2)
        assert np.array_equal(seq.trace.rows, par.trace.rows, equal_nan=True)

    def test_regression_to_learning_matrix_mean(self):
        # pure social sampling: per-experience sample means estimate the
        # learning-matrix blend of the population tables
        from epidyn import compute_credibility, compute_social_learning

        rng = rng_for(77)
        setting = grid_setting(5)
        values = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0]])
        state = PopulationState.from_values(setting, values)
        gamma = np.array([[1.0, 0.5, 0.2]] * 3)
        cred = compute_credibility(state.functions, ConstantLikelihood(1.0), 0.1)
        learning = compute_social_learning(gamma, cred)
        m = 100_000
        cfg = SimulationConfig(tau=0.0, sample_size=m)
        sample = draw_sample(0, state, cfg, learning, rng)
        blend = np.einsum("j,jel->el", learning[0], state.values)
        for e in range(5):
            sel = sample.experience_indices == e
            got = sample.concepts[sel].mean()
            # exact per-draw variance of the concept at e
            var = np.einsum("j,j->", learning[0], (state.values[:, e, 0] - blend[e, 0]) ** 2)
            se = math.sqrt(var / sel.sum())
            assert abs(got - blend[e, 0]) <= 3 * se


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(tau=-0.1),
            dict(tau=1.1),
            dict(sample_size=0),
            dict(sigma_e=0.0),
            dict(sigma_c=-1.0),
            dict(c_min=-0.5),
            dict(horizon=0),
            dict(replicates=0),
            dict(metric_variant="median"),
        ],
    )
    def test_bad_fields_rejected(self, kw):
        with pytest.raises(ConfigError):
            SimulationConfig(**kw).validate()

    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as err:
            SimulationConfig(tau=2.0, sample_size=0, horizon=-1).validate()
        msg = str(err.value)
        assert "tau" in msg and "sample_size" in msg and "horizon" in msg

    @pytest.mark.parametrize(
        "kw",
        [
            dict(tau=math.nan),
            dict(sigma_e=math.nan),
            dict(sigma_c=math.nan),
            dict(sigma_c=math.inf),
            dict(c_min=math.nan),
            dict(c_min=math.inf),
            dict(sample_size=2.5),
            dict(horizon=2.5),
            dict(replicates=2.5),
            dict(horizon=True),
            dict(seed=-1),
            dict(seed=1.5),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_nan_and_nonintegral_fields_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            SimulationConfig(**kw).validate()

    def test_integral_numpy_fields_accepted(self):
        SimulationConfig(sample_size=np.int64(3), seed=np.uint32(7), c_min=np.float64(0.1)).validate()

    def test_population_requires_shared_setting(self):
        a = KnowledgeFunction.constant(grid_setting(3), 1.0)
        b = KnowledgeFunction.constant(grid_setting(3), 1.0)
        with pytest.raises(ConfigError):
            PopulationState([a, b])

    @pytest.mark.parametrize(
        "values",
        [np.zeros((2, 4, 1)), np.zeros((2, 3, 2)), np.zeros((2, 3, 1, 1)), np.zeros(3), 0.0],
        ids=["experiences", "dim", "4d", "1d", "scalar"],
    )
    def test_from_values_rejects_wrong_shape(self, values):
        with pytest.raises(KnowledgeError):
            PopulationState.from_values(grid_setting(3), values)

    def test_from_values_rejects_values_outside_the_space(self):
        with pytest.raises(KnowledgeError):
            PopulationState.from_values(grid_setting(3, -1.0, 1.0), [[0.0, 0.5, 1.5]])
        discrete = KnowledgeSetting([[0.0], [1.0]], DiscreteConcepts([[0.0], [2.0]]))
        with pytest.raises(KnowledgeError):
            PopulationState.from_values(discrete, [[[2.0], [1.0]]])
        with pytest.raises(KnowledgeError):
            PopulationState.from_values(grid_setting(2), [[0.0, math.nan]])

    def test_from_values_rejects_empty_population(self):
        for empty in ([], np.zeros((0, 3)), np.zeros((0, 3, 1))):
            with pytest.raises(ConfigError):
                PopulationState.from_values(grid_setting(3), empty)
        with pytest.raises(ConfigError):
            PopulationState.from_values(grid_setting(3), np.zeros((2, 3)), t=-1)

    def test_from_values_copies_and_freezes(self):
        raw = np.ones((2, 3, 1))
        state = PopulationState.from_values(grid_setting(3), raw)
        raw[0, 0, 0] = 5.0
        assert state.values[0, 0, 0] == 1.0
        assert not state.values.flags.writeable
        assert np.array_equal(state.functions[1].values, np.ones((3, 1)))

    def test_sample_shape_checked(self):
        with pytest.raises(ConfigError):
            Sample([0, 1], [[1.0]])


def seed_sequence_streams(seed, replicate, n_agents):
    """The stream construction that agent_streams replaced, kept as its
    oracle: one SeedSequence per agent."""
    return [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replicate, a))))
        for a in range(n_agents)
    ]


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("replicate", [0, 1, 2**32])
    def test_keys_equal_seed_sequence(self, seed, replicate):
        got = sampling.philox_keys(seed, replicate, 40)
        want = [
            np.random.SeedSequence(seed, spawn_key=(replicate, a)).generate_state(2, np.uint64)
            for a in range(40)
        ]
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed, replicate", [(0, 0), (5, 1), (2**64 + 5, 2**32)])
    def test_streams_equal_seed_sequence_streams(self, seed, replicate):
        got, want = agent_streams(seed, replicate, 6), seed_sequence_streams(seed, replicate, 6)
        for a, b in zip(got, want):
            np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
            assert np.array_equal(a.random(1000), b.random(1000))
            assert isinstance(a.bit_generator.seed_seq, sampling.PhiloxKey)

    @pytest.mark.parametrize(
        "seed, replicate, error",
        [(-1, 0, ValueError), (0, -1, ValueError), (1.5, 0, TypeError), (0, 2.0, TypeError)],
    )
    def test_negative_or_non_integer_seed_or_replicate_raises(self, seed, replicate, error):
        with pytest.raises(error):
            seed_sequence_streams(seed, replicate, 2)
        with pytest.raises(error):
            agent_streams(seed, replicate, 2)

    def test_streams_are_agent_independent(self):
        # agent 1's draws do not depend on whether agent 0 drew first
        a0, a1 = agent_streams(9, 0, 2)
        b0, b1 = agent_streams(9, 0, 2)
        _ = a0.random(1000)
        assert np.array_equal(a1.random(5), b1.random(5))

    def test_kernel_is_symmetric_unit_diagonal(self):
        K = experience_kernel(grid_setting(6), 1.5)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)


def searchsorted_discrete_gaussian(u, centers, sigma_c, concepts):
    # Per-row reference for the vectorized pick in _discrete_gaussian.
    d2 = np.sum((centers[:, None, :] - concepts.points[None, :, :]) ** 2, axis=-1)
    logits = -d2 / (2.0 * sigma_c**2)
    logits -= logits.max(axis=1, keepdims=True)
    cum = np.cumsum(np.exp(logits), axis=1)
    u = u * cum[:, -1]
    picks = np.array(
        [np.searchsorted(cum[k], u[k], side="right") for k in range(len(centers))]
    )
    return concepts.points[np.minimum(picks, len(concepts) - 1)]


class TestDiscreteExploration:
    @pytest.mark.parametrize("sigma_c", [0.05, 0.7, 3.0, 50.0])
    def test_equals_per_row_searchsorted(self, sigma_c):
        # sigma_c = 0.05 underflows every weight but the centre's to 0, so
        # cum has flat runs before and after the jump.
        gen = np.random.default_rng(41)
        concepts = DiscreteConcepts(
            np.vstack([[0.0, 0.0], gen.uniform(-4, 4, size=(11, 2))])
        )
        for seed in range(20):
            centers = concepts.points[gen.integers(0, len(concepts), size=37)]
            centers = centers + gen.normal(0, 0.5, size=centers.shape) * (seed % 2)
            u = rng_for(seed).random(len(centers))
            got = _discrete_gaussian(u, centers, sigma_c, concepts)
            want = searchsorted_discrete_gaussian(u, centers, sigma_c, concepts)
            assert np.array_equal(got, want)

    def test_underflowed_weights_pick_the_centre(self):
        concepts = DiscreteConcepts([[0.0], [1.0], [2.0], [3.0], [40.0]])
        centers = concepts.points[[0, 2, 4, 4, 1]]
        u = rng_for(3).random(len(centers))
        got = _discrete_gaussian(u, centers, 0.01, concepts)
        assert np.array_equal(got, centers)
        assert np.array_equal(got, searchsorted_discrete_gaussian(u, centers, 0.01, concepts))


class TestFixedCountDraws:
    def test_normal_helpers_match_statistics(self):
        # statistics.NormalDist is the oracle.  Its cdf is 0.5 (1 + erf),
        # which cancels below z = -2, so there the CDF is checked through
        # the oracle's quantile (AS241, accurate in both tails) instead.
        from statistics import NormalDist

        nd = NormalDist()
        z = np.linspace(-8.0, 8.0, 1601)
        cdf = _normal_cdf(z)
        want = np.array([nd.cdf(x) for x in z])
        upper = z >= -2.0
        assert np.allclose(cdf[upper], want[upper], rtol=1e-14, atol=0.0)
        assert np.allclose(cdf, want, rtol=0.0, atol=2.3e-16)
        lower = z <= 0.0
        back = np.array([nd.inv_cdf(p) for p in cdf[lower]])
        assert np.allclose(back, z[lower], rtol=1e-14, atol=1e-15)

        p = np.array([nd.cdf(x) for x in z])
        p = np.concatenate([p[(p > 0.0) & (p < 1.0)], np.logspace(-300, -1, 300)])
        want = np.array([nd.inv_cdf(x) for x in p])
        assert np.allclose(_normal_ppf(p), want, rtol=1e-14, atol=0.0)
        assert np.allclose(_normal_ppf(p.reshape(-1, 1))[:, 0], want, rtol=1e-14, atol=0.0)

    def test_quantile_is_finite_at_zero_and_one(self):
        with np.errstate(all="raise"):
            out = _normal_ppf(np.array([0.0, 0.5, 1.0]))
        assert np.all(np.isfinite(out)) and out[0] == -out[2] < -37.0 and out[1] == 0.0

    @pytest.mark.parametrize("edge", ["lo", "hi"])
    def test_truncated_gaussian_ks(self, edge):
        # 20,000 draws about a centre 0.05 inside one edge of [-1, 1] with
        # sigma 0.5 against the exact truncated-normal CDF; the bound is the
        # 0.1% critical value of the KS distance, 1.95 / sqrt(n)
        lo, hi, sigma, n = -1.0, 1.0, 0.5, 20_000
        centre = lo + 0.05 if edge == "lo" else hi - 0.05
        setting = grid_setting(3, lo=lo, hi=hi)
        state = PopulationState([KnowledgeFunction.constant(setting, centre)])
        cfg = SimulationConfig(tau=1.0, sample_size=n, sigma_c=sigma)
        draws = np.sort(draw_sample(0, state, cfg, np.eye(1), rng_for(31)).concepts[:, 0])

        def phi(x):
            return 0.5 * (1.0 + math.erf((x - centre) / (sigma * math.sqrt(2.0))))

        mass = phi(hi) - phi(lo)
        cdf = np.array([(phi(x) - phi(lo)) / mass for x in draws])
        k = np.arange(1, n + 1)
        distance = max(np.max(k / n - cdf), np.max(cdf - (k - 1) / n))
        assert distance < 1.95 / math.sqrt(n)
        assert lo <= draws[0] and draws[-1] <= hi

    @pytest.mark.parametrize("centre", [-1.0, 1.0, 0.3])
    @pytest.mark.parametrize("sigma", [0.5, 1e6])
    def test_draws_stay_in_the_box(self, centre, sigma):
        setting = grid_setting(3, lo=-1.0, hi=1.0)
        state = PopulationState([KnowledgeFunction.constant(setting, centre)])
        cfg = SimulationConfig(tau=1.0, sample_size=5000, sigma_c=sigma)
        with np.errstate(all="raise"):
            draws = draw_sample(0, state, cfg, np.eye(1), rng_for(32)).concepts
        assert np.all((draws >= -1.0) & (draws <= 1.0))
        if sigma > 1.0:  # nearly uniform over the box
            assert abs(draws.mean()) < 0.05

    @pytest.mark.parametrize("kind", ["box1", "box2", "discrete"])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    def test_each_stream_read_once_per_step(self, kind, tau):
        # one block of (2 + w) * m uniforms per agent and step, w = l for a
        # box and 1 for a discrete space, whatever tau and the draws are
        rng = np.random.default_rng(61)
        if kind == "discrete":
            points = np.array([[0.0], [1.0], [2.5], [4.0]])
            setting = KnowledgeSetting(np.arange(5)[:, None], DiscreteConcepts(points))
            values = points[rng.integers(0, 4, size=(4, 5))]
        else:
            dim = 1 if kind == "box1" else 2
            setting = KnowledgeSetting(np.arange(5)[:, None], BoxConcepts([-2.0] * dim, [2.0] * dim))
            values = rng.uniform(-2.0, 2.0, size=(4, 5, dim))
        values[1] = 0.0  # a newborn
        state = PopulationState.from_values(setting, values)
        n, m = state.n_agents, 7
        width = 2 + (1 if kind == "discrete" else setting.concept_dim)
        cfg = SimulationConfig(tau=tau, sample_size=m, sigma_c=0.7)
        rngs, clones = agent_streams(8, 2, n), agent_streams(8, 2, n)
        for _ in range(2):
            state = step(state, cfg, rng.uniform(0.1, 1.0, (n, n)), ConstantLikelihood(0.9), rngs)
            for clone in clones:
                clone.random(width * m)
            for got, want in zip(rngs, clones):
                np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)


def as241_oracle(p):
    """AS241 as ``_normal_ppf`` evaluated it with a branch mask per use,
    kept as the oracle of the one branch index derived once."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    s = np.sqrt(-np.log(np.maximum(np.minimum(p, 1.0 - p), dynamics._TINY)))
    central, far = np.abs(q) <= 0.425, s > 5.0
    r = np.where(central, 0.180625 - q * q, s - np.where(far, 5.0, 1.6))
    terms = dynamics._AS241[np.where(central, 0, 1 + far)] * r[..., None, None] ** dynamics._POWERS
    sums = terms.sum(axis=-1)
    ratio = sums[..., 0] / sums[..., 1]
    return np.where(central, q * ratio, np.copysign(ratio, q))


def truncated_gaussian_oracle(u, centers, sigma_c, box):
    """``_truncated_gaussian`` as two tail CDF calls, the oracle quantile
    and np.clip."""
    below = _normal_cdf((box.lo - centers) / sigma_c)
    above = _normal_cdf((centers - box.hi) / sigma_c)
    inside = 1.0 - below - above
    p = below + u * inside
    q = above + (1.0 - u) * inside
    z = as241_oracle(np.minimum(p, q))
    return np.clip(centers + sigma_c * np.where(p <= q, z, -z), box.lo, box.hi)


def same_bits(got, want):
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


class TestExplorationOracles:
    """The exploration's array forms against the forms they replaced, bit
    for bit, signs of zeros included."""

    def test_quantile_equals_the_oracle(self):
        rng = np.random.default_rng(43)
        p = np.concatenate([
            rng.random(20_000), 10.0 ** -rng.uniform(0.0, 320.0, 20_000),
            1.0 - 10.0 ** -rng.uniform(0.0, 17.0, 5_000),
            [0.0, 1.0, 0.5, 0.075, 0.925, 5e-324, math.exp(-25.0), np.nextafter(0.075, 1.0),
             np.nextafter(0.925, 0.0), np.nextafter(math.exp(-25.0), 0.0)],
        ])
        tails = np.abs(p - 0.5) > 0.425
        assert tails.any() and (p < math.exp(-25.0)).any() and (~tails).any()
        for shape in [(-1,), (-1, 1), (-1, 2)]:
            x = p[: len(p) // 2 * 2].reshape(shape)
            assert same_bits(_normal_ppf(x), as241_oracle(x))

    def test_one_call_tail_cdf_equals_two(self):
        rng = np.random.default_rng(44)
        for dim in (1, 2):
            a = rng.normal(0.0, 20.0, (50, dim))
            b = -rng.exponential(5.0, (50, dim))
            a[:3], b[:3] = -0.0, 0.0
            a[3:6], b[3:6] = -40.0, -1e-300
            below, above = _normal_cdf(np.array([a, b]))
            assert same_bits(below, _normal_cdf(a)) and same_bits(above, _normal_cdf(b))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_truncated_gaussian_equals_the_oracle(self, dim):
        # centres on the box's edges, just inside them and in between; uniforms
        # at 0, near 1 and tiny, so that draws take both tail ranges and both
        # signs of the quantile
        rng = np.random.default_rng(45 + dim)
        box = BoxConcepts([-1.0, -0.0][:dim], [2.0, 0.5][:dim])
        k = 600
        centers = rng.uniform(box.lo, box.hi, (k, dim))
        centers[:100], centers[100:200] = box.lo, box.hi
        centers[200:250] = box.lo + 1e-9
        centers[250:300] = box.hi - 1e-9
        u = rng.random((k, dim))
        u[::7], u[1::7], u[2::7] = 0.0, 1.0 - 2.0**-53, 1e-13
        for sigma in (1e-3, 0.1, 1.0, 50.0):
            got = _truncated_gaussian(u, centers, sigma, box)
            assert same_bits(got, truncated_gaussian_oracle(u, centers, sigma, box))
            assert box.contains(got).all()


def mixed_setup(kind, n=4, n_exp=5, seed=0):
    """A population of the given concept space with one newborn, some zero
    entries, a random structure and a fitting landscape."""
    rng = np.random.default_rng(seed)
    experiences = np.arange(n_exp)[:, None]
    if kind == "discrete":
        points = np.array([[0.0], [1.0], [2.5], [4.0]])
        setting = KnowledgeSetting(experiences, DiscreteConcepts(points))
        values = points[rng.integers(0, 4, size=(n, n_exp))]
        landscape = TabularLikelihood(rng.uniform(0.0, 1.0, size=(n_exp, 4)))
    else:
        dim = 1 if kind == "box1" else 2
        setting = KnowledgeSetting(experiences, BoxConcepts([-2.0] * dim, [2.0] * dim))
        values = rng.uniform(-2.0, 2.0, size=(n, n_exp, dim))
        values[rng.random((n, n_exp)) < 0.3] = 0.0
        landscape = GaussianPeakLikelihood([0.5] * dim, 2.0)
    values[1] = 0.0
    state = PopulationState.from_values(setting, values)
    gamma = rng.uniform(0.0, 1.0, size=(n, n))
    return state, gamma, landscape, np.ones((n_exp, setting.concept_dim))


def per_replicate_run(config, gamma, landscape, initial, re_target, streams=agent_streams):
    """The per-replicate loop that ``run`` replaced, kept as its oracle:
    each replicate stepped alone from its own (seed, replicate) streams,
    read one block per step, and traced after each step."""
    kernel = experience_kernel(initial.setting, config.sigma_e) if config.tau > 0.0 else None
    rows, finals = [], []
    for r in range(config.replicates):
        state = initial
        rngs = streams(config.seed, r, state.n_agents)
        rows.append(trace_record(state.t, r, state, re_target))
        for _ in range(config.horizon):
            state = step(state, config, gamma, landscape, rngs, kernel=kernel)
            rows.append(trace_record(state.t, r, state, re_target))
        finals.append(state.values)
    return np.asarray(rows), np.stack(finals)


class TestReplicateBatch:
    @pytest.mark.parametrize("replicates", [1, 2, 5])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("kind", ["box1", "box2", "discrete"])
    def test_stacked_run_equals_per_replicate_steps(self, kind, tau, replicates):
        state, gamma, landscape, target = mixed_setup(kind, seed=replicates)
        for drop_zero_social in (False, True):
            for c_min in (0.0, 0.05):
                cfg = SimulationConfig(
                    tau=tau, sample_size=6, sigma_c=0.7, c_min=c_min, horizon=4,
                    replicates=replicates, seed=17, drop_zero_social=drop_zero_social,
                )
                got = run(cfg, gamma, landscape, state, re_target=target)
                rows, finals = per_replicate_run(cfg, gamma, landscape, state, target)
                assert np.array_equal(got.trace.rows, rows)
                assert np.array_equal(got.final_values, finals)

    def test_exploration_weights_round_alike_stacked_or_alone(self):
        # at N = 10, E = 25 one (R * N, E) @ (E, E) product rounds
        # differently from the per-population products of the stack
        rng = np.random.default_rng(12)
        setting = grid_setting(25)
        kernel = experience_kernel(setting, 1.0)
        stack = np.where(rng.random((20, 10, 25, 1)) < 0.5, rng.uniform(-1, 1, (20, 10, 25, 1)), 0.0)
        stack[3, 4] = 0.0  # a newborn
        got = _exploration_weights(stack, kernel).reshape(20, 10, 25)
        for r in range(20):
            assert np.array_equal(got[r], _exploration_weights(stack[r : r + 1], kernel))

    def test_creation_sized_stack_equals_per_replicate_steps(self):
        setup = preset("test3-creation", tau=0.3, horizon=5, replicates=5)
        args = (setup.config, setup.structure, setup.landscape, setup.initial, setup.re_target)
        got = run(*args[:4], re_target=setup.re_target)
        rows, finals = per_replicate_run(*args)
        assert np.array_equal(got.trace.rows, rows)
        assert np.array_equal(got.final_values, finals)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_chunk_size_gives_the_same_run(self, monkeypatch, n_jobs):
        state, gamma, landscape, target = mixed_setup("box1", seed=8)
        cfg = SimulationConfig(tau=0.3, sample_size=6, sigma_c=0.7, horizon=3, replicates=5, seed=4)
        rows, finals = per_replicate_run(cfg, gamma, landscape, state, target)
        stacks = []
        step_alone = dynamics.step

        def spy(state, *args, **kwargs):
            stacks.append(len(state.values))
            return step_alone(state, *args, **kwargs)

        monkeypatch.setattr(dynamics, "step", spy)
        n = state.n_agents
        for size, expected in ((1, [1] * 5), (2, [2, 2, 1]), (3, [3, 2]), (5, [5]), (6, [5])):
            monkeypatch.setattr(dynamics, "CHUNK_FLOATS", size * n * n)
            stacks.clear()
            got = run(cfg, gamma, landscape, state, re_target=target, n_jobs=n_jobs)
            assert np.array_equal(got.trace.rows, rows)
            assert np.array_equal(got.final_values, finals)
            if n_jobs == 1:  # the workers step in other processes
                assert stacks == [k for k in expected for _ in range(cfg.horizon)]

    def test_chunk_memory_is_capped(self):
        # N = 400, R = 8: each stacked (R, N, N) matrix of one chunk is held
        # to CHUNK_FLOATS entries (6 replicates), so the peak stays below
        # six such matrices; all 8 replicates in one stack reach 52 MB.
        rng = np.random.default_rng(3)
        n, n_exp = 400, 25
        values = rng.uniform(-10, 10, size=(n, n_exp, 1))
        values[rng.random((n, n_exp)) < 0.3] = 0.0
        state = PopulationState.from_values(grid_setting(n_exp), values)
        gamma = ring_structure(n, 8)
        cfg = SimulationConfig(tau=0.0, sample_size=50, horizon=1, replicates=8, seed=1)
        tracemalloc.start()
        try:
            run(cfg, gamma, GaussianPeakLikelihood([6.0], 10.0), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * dynamics.CHUNK_FLOATS


def searchsorted_sources(learning, u):
    """The per-row search that pick_sources replaced, kept as its oracle: the
    right-side searchsorted of each stream's queries in its dense
    cumulative row, clipped to N - 1, as flat indices r * N + j."""
    n = learning.shape[-1]
    cum = np.cumsum(learning, axis=-1).reshape(-1, n)
    picked = np.array([np.searchsorted(cum[s], u[s], side="right") for s in range(len(cum))])
    return np.minimum(picked, n - 1) + (np.arange(len(cum)) // n * n)[:, None]


def table_searchsorted_sources(learning, u, table, offsets=None):
    """searchsorted_sources of learning rows on a support table: the rows
    scattered into the dense (N, N) layout, a dead row made uniform, and
    searched row by row; stands in for pick_sources."""
    n, width = table.agents.shape
    on_table = learning.reshape(-1, n, width)
    dense = np.zeros((len(on_table), n, n))
    np.put_along_axis(dense, np.broadcast_to(table.agents, on_table.shape), on_table, axis=-1)
    dense[~dense.any(axis=-1)] = 1.0 / n
    return searchsorted_sources(dense, u)


def uneven_structure(rng, n):
    """Rows of degrees 1 .. N / 2 with zero entries between, one row with
    no entry (always dead) and one all-zero column."""
    gamma = np.zeros((n, n))
    for i in range(n):
        degree = 1 + (i * 7) % (n // 2)
        gamma[i, rng.choice(n, size=degree, replace=False)] = rng.uniform(0.5, 2.0, size=degree)
    gamma[:, 3] = 0.0
    gamma[n - 2] = 0.0
    return gamma


def ring_structure(n, k):
    gamma = np.zeros((n, n))
    for d in range(-k, k + 1):
        gamma[np.arange(n), (np.arange(n) + d) % n] = 1.0
    return gamma


class TestSourceSearch:
    def queries(self, rng, cumulative, m):
        # uniforms, plus queries equal to cumulative entries (plateaus
        # included), 0, and the largest double below 1
        u = rng.random((len(cumulative), m))
        cols = rng.integers(0, cumulative.shape[1], size=(len(cumulative), m // 3))
        u[:, : m // 3] = np.take_along_axis(cumulative, cols, axis=1)
        u[:, -2] = 0.0
        u[:, -1] = np.nextafter(1.0, 0.0)
        return u

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 16, 17, 400])
    def test_search_equals_searchsorted(self, width):
        rng = np.random.default_rng(width)
        weights = rng.random((30, width))
        weights[rng.random((30, width)) < 0.4] = 0.0  # plateaus
        weights[3] = 0.0  # a flat row
        cumulative = np.cumsum(weights, axis=1)
        u = self.queries(rng, cumulative, 24)
        want = [np.searchsorted(cumulative[s], u[s], side="right") for s in range(30)]
        assert np.array_equal(sampling.search_rows(cumulative, u), want)

    @pytest.mark.parametrize("structure", ["ring", "uneven", "dense"])
    @pytest.mark.parametrize("n_pops", [1, 3])
    def test_support_search_equals_dense_searchsorted(self, structure, n_pops):
        rng = np.random.default_rng([n_pops, len(structure)])
        n = 24
        gamma = {
            "ring": ring_structure(n, 3),
            "uneven": uneven_structure(rng, n),
            "dense": rng.uniform(0.0, 1.0, (n, n)),
        }[structure]
        cred = rng.uniform(0.0, 1.0, size=(n_pops, n, n))
        cred[rng.random(cred.shape) < 0.3] = 0.0  # plateaus from exact zeros
        cred[0, 5] = 0.0  # a dead row, uniform over all N agents
        learning = compute_social_learning(gamma, cred)
        assert np.all(learning[0, 5] == 1.0 / n)
        u = self.queries(rng, np.cumsum(learning, axis=-1).reshape(-1, n), 30)
        want = searchsorted_sources(learning, u)
        # every structure has a table; a dense one has no gaps
        table = sampling.support_table(gamma)
        assert table.full == (structure == "dense")
        assert table.agents.shape[1] == (gamma > 0).sum(axis=1).max()
        on_table = compute_social_learning(
            table.entries(gamma), table.entries(cred), table=table
        )
        # a dead row is all zero on the table
        dead = np.all(learning == 1.0 / n, axis=-1)
        assert dead[0, 5] and (structure == "uneven") == dead[:, n - 2].all()
        assert np.array_equal(np.all(on_table == 0.0, axis=-1), dead)
        assert np.array_equal(sampling.pick_sources(on_table, u, table), want)
        # the (N, N) learning matrices, searched on the complete structure's table
        complete = sampling.SupportTable.complete(n)
        assert np.array_equal(sampling.pick_sources(learning.copy(), u, complete), want)

    def test_every_structure_gets_a_table(self):
        gamma = ring_structure(20, 4)  # degree 9
        agents, gather, own, columns = table = sampling.support_table(gamma)
        assert not table.full
        assert np.array_equal(np.sort(columns[:, :-1], axis=1), np.nonzero(gamma)[1].reshape(20, 9))
        assert np.array_equal(agents, columns[:, :-1])
        assert np.all(columns[:, -1] == 19)
        assert np.all(gamma.reshape(-1)[gather] == 1.0)
        assert np.array_equal(agents.reshape(-1)[own], np.arange(20))
        # a widest row of N / 2 entries still gets a table with gaps: the
        # other rows are padded with an agent off their support
        gamma[0, 10] = 1.0
        table = sampling.support_table(gamma)
        assert not table.full and table.agents.shape == (20, 10)
        assert np.array_equal(table.agents[1], [0, 1, 2, 3, 4, 5, 17, 18, 19, 6])
        # a complete structure's table has no gaps and holds no (N, N)
        # index array: it is the row layout itself
        for gamma in (np.ones((20, 20)), np.random.default_rng(2).uniform(0.1, 1.0, (20, 20))):
            table = sampling.support_table(gamma)
            assert table.full and table.gather is None
            assert table.agents.shape == (20, 20) and table.agents.strides[0] == 0
            assert np.array_equal(table.agents, np.broadcast_to(np.arange(20), (20, 20)))
            assert np.array_equal(table.columns, [list(range(20)) + [19]])
            assert np.array_equal(table.own, np.arange(20) * 21)
            assert table.entries(gamma) is gamma
        # so is the table of a structure with one complete row, or with a
        # row wider than N / 2: the rows keep their zero entries in place as
        # their padding
        gamma[3, 7] = 0.0
        gamma[5] = 0.0
        assert sampling.support_table(gamma).full
        assert sampling.support_table(ring_structure(20, 5)).full  # degree 11
        gamma = 1.0 - np.eye(20)  # no self-influence
        gamma[3, 7] = 0.0
        assert sampling.support_table(gamma).full

    def test_support_table_pads_rows_with_agent_n_minus_1_at_weight_0(self):
        gamma = np.zeros((6, 6))
        gamma[0, [1, 4]] = 1.0
        gamma[1, 2] = 1.0
        gamma[3, [0, 2, 5]] = 1.0
        table = sampling.support_table(gamma)
        gather, columns = table.gather, table.columns
        assert np.array_equal(columns[0], [1, 4, 5, 5])
        assert np.array_equal(columns[2], [5, 5, 5, 5])
        assert np.array_equal(columns[3], [0, 2, 5, 5])
        assert np.all(gamma.reshape(-1)[gather[[0, 1, 3]]].sum(axis=1) == [2, 1, 3])
        assert np.all(gamma.reshape(-1)[gather[[2, 4, 5]]] == 0.0)
        # the padding points at an agent off the row's support
        assert np.array_equal(table.agents[0], [1, 4, 0])
        assert np.array_equal(gather, table.agents + 6 * np.arange(6)[:, None])


def table_case(kind, structure, n_pops, zero_likelihood, masks="shared", n=24, n_exp=6):
    """A stack of n_pops populations of one concept space under a structure
    with a dead row (padded rows too, unless it is complete), and a
    landscape that has exact zeros if asked.  Some agents share one
    support mask, or every agent has a mask of its own."""
    state, _, landscape, _ = mixed_setup(kind, n=n, n_exp=n_exp, seed=n_pops)
    rng = np.random.default_rng([n_pops, len(kind), len(structure)])
    if structure == "ring":
        gamma = ring_structure(n, 3)
        gamma[0, n // 2] = 1.0  # one row wider than the rest: the others pad
        gamma[5] = 0.0  # a dead row
    elif structure == "uneven":
        gamma = uneven_structure(rng, n)  # row n - 2 is dead
    else:
        gamma = rng.uniform(0.5, 2.0, (n, n))
    pops = [state.values]
    for _ in range(n_pops - 1):
        pops.append(pops[0][rng.permutation(n)])
    stack = np.stack(pops)
    if masks == "shared":
        stack[:, 2:6] = stack[:, 2:3]  # agents sharing one support mask
    else:
        own = (np.arange(1, n + 1)[:, None] >> np.arange(n_exp)) & 1 == 1
        stack = np.where(own[..., None], np.where(stack != 0.0, stack, 1.0), 0.0)
    setting = state.setting
    if zero_likelihood and kind == "discrete":
        table = landscape.table.copy()
        table[:, 1] = 0.0  # concept 1.0 has likelihood 0 everywhere
        landscape = TabularLikelihood(table)
    elif zero_likelihood:
        # so narrow that far concepts underflow to an exact 0
        landscape = GaussianPeakLikelihood([0.5] * setting.concept_dim, 0.002)
    return setting, stack, gamma, landscape


class TestTableLayer:
    """Credibility, learning and source search on the structure's column
    table against the full (N, N) forms, on the complete structure's table,
    gathered on the table."""

    @pytest.mark.parametrize("kind", ["box1", "box2", "discrete"])
    @pytest.mark.parametrize("structure", ["ring", "uneven", "complete"])
    @pytest.mark.parametrize("n_pops", [1, 3])
    def test_table_equals_full_forms_gathered(self, kind, structure, n_pops):
        complete = sampling.SupportTable.complete(24)
        for zero_likelihood, masks in ((False, "shared"), (True, "shared"), (True, "own")):
            setting, stack, gamma, landscape = table_case(
                kind, structure, n_pops, zero_likelihood, masks
            )
            n = len(gamma)
            table = sampling.support_table(gamma)
            assert table.full == (structure == "complete")
            if not table.full:
                assert np.any(gamma.take(table.gather) == 0.0)  # padded
            lik = landscape.per_population(setting, stack)
            assert (lik == 0.0).any() == zero_likelihood
            _, rows, owner = _key_rows(setting, stack, stack.any(axis=-1), lik)
            assert (len(rows) == owner.size) == (masks == "own")
            for c_min in (0.0, 0.05):
                full = credibility_from_values(setting, stack, landscape, c_min, complete)
                buffer = np.full((n_pops,) + table.agents.shape, np.nan)
                cred = credibility_from_values(setting, stack, landscape, c_min, table, buffer)
                assert np.array_equal(cred, table.entries(full))
                assert cred is buffer
                if n_pops == 1:
                    alone = credibility_from_values(setting, stack[0], landscape, c_min, table)
                    assert np.array_equal(alone, table.entries(full)[0])

                learning = compute_social_learning(gamma, full)
                out = np.full(cred.shape, np.nan)
                got = compute_social_learning(table.entries(gamma), cred, out, table)
                assert got is out
                dead = (gamma * full).sum(axis=-1) <= ZERO_ROW_GUARD
                if structure != "complete":
                    assert dead[:, 5 if structure == "ring" else n - 2].all()
                assert np.array_equal(got[~dead], table.entries(learning)[~dead])
                assert np.all(got[dead] == 0.0)
                assert np.all(learning[dead] == 1.0 / n)
                # without a buffer one is allocated; the credibility may
                # take the result, as in a step
                again = compute_social_learning(table.entries(gamma), cred, table=table)
                assert np.array_equal(again, got)
                in_place = compute_social_learning(table.entries(gamma), cred, cred, table)
                assert in_place is cred and np.array_equal(in_place, got)

                u = np.random.default_rng(1).random((n_pops * n, 40))
                u[:, -1] = np.nextafter(1.0, 0.0)
                want = searchsorted_sources(learning, u)
                assert np.array_equal(sampling.pick_sources(got, u, table), want)

    @pytest.mark.parametrize("kind", ["box1", "discrete"])
    @pytest.mark.parametrize("structure", ["no-self", "ring-no-self"])
    def test_population_rounds_alike_alone_and_in_a_stack(self, kind, structure):
        # credibility runs once per distinct (population, mask) key, with
        # one BLAS product per population: a population's entries have the
        # same bits alone and among others whose masks differ
        setting, stack, _, landscape = table_case(kind, "complete", 3, True)
        n = stack.shape[1]
        rng = np.random.default_rng(len(kind))
        stack[1][rng.random(stack.shape[1:3]) < 0.4] = 0.0  # masks of its own
        stack[2, 3:9] = stack[2, 3:4]  # one mask shared by six agents
        gamma = 1.0 - np.eye(n)
        if structure == "ring-no-self":
            gamma = ring_structure(n, 3) - np.eye(n)
            gamma[0, n // 2] = 1.0  # the other rows pad, some with agent i itself
        table = sampling.support_table(gamma)
        assert table.full == (structure == "no-self")
        # no row has an (i, i) entry of the structure
        assert not table.entries(gamma).reshape(-1)[table.own].any()
        assert (landscape.per_population(setting, stack) == 0.0).any()
        support = stack.any(axis=-1)
        keys = [len(_key_rows(setting, stack[p], support[p], np.ones(support[p].shape))[0])
                for p in range(3)]
        assert len(set(keys)) == 3
        entries = table.entries(gamma)
        cred = credibility_from_values(setting, stack, landscape, 0.05, table)
        learning = compute_social_learning(entries, cred, table=table)
        for p in range(3):
            alone = credibility_from_values(setting, stack[p], landscape, 0.05, table)
            assert np.array_equal(alone, cred[p])
            assert np.array_equal(compute_social_learning(entries, alone, table=table), learning[p])

    def test_ring_step_plan_and_step_stay_small_at_n_2000(self):
        # N = 2000, k = 17, E = 25: the plan holds the table and one (R, N, k)
        # buffer, where it held a (2, R, N, N) scratch array (61 MiB).  Plan
        # and step together peak at 6.18 MiB (tracemalloc, numpy 2.4.6): the
        # structure's 0/1 support that the table is built from (3.8 MiB) and
        # the step's block of uniforms (2.3 MiB) are the largest arrays.
        rng = np.random.default_rng(2000)
        setting = grid_setting(25)
        state = PopulationState._trusted(setting, rng.uniform(0.5, 10, size=(2000, 25, 1)), 0)
        gamma = ring_structure(2000, 8)
        cfg = SimulationConfig(tau=0.0, sample_size=50, c_min=0.0)
        rngs = agent_streams(5, 0, 2000)
        tracemalloc.start()
        try:
            plan = dynamics.step_plan(gamma, 1, 25)
            step(state, cfg, gamma, GaussianPeakLikelihood([6.0], 10.0), rngs, plan=plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.scratch.shape == (1, 2000, 17)
        assert peak < 9.25 * 2**20

    def test_table_learning_refuses_bad_entries(self):
        gamma = ring_structure(8, 1)
        table = sampling.support_table(gamma)
        cred = np.ones((1, 8, 3))
        with pytest.raises(MatrixError):
            compute_social_learning(np.ones((8, 4)), cred, table=table)
        for bad in (-1.0, math.nan, math.inf):
            entries = table.entries(gamma)
            entries[2, 1] = bad
            with pytest.raises(MatrixError):
                compute_social_learning(entries, cred, table=table)
            worse = cred.copy()
            worse[0, 2, 1] = bad
            with pytest.raises(MatrixError):
                compute_social_learning(table.entries(gamma), worse, table=table)


    def test_complete_structure_with_a_zero_likelihood_peaks_below_10_mib(self):
        # N = 400 on a complete structure, 63 experiences and one concept of
        # likelihood 0 everywhere, as in the naming workload: the exact-zero
        # test takes one (N, N) product, as the (N, N) forms did, and no
        # (N, k, E) array on the table (k = N)
        rng = np.random.default_rng(63)
        points = [[float(c)] for c in range(6)]
        setting = KnowledgeSetting(np.arange(63.0)[:, None], DiscreteConcepts(points))
        state = PopulationState.from_values(setting, rng.integers(0, 6, size=(400, 63)))
        table = rng.uniform(0.6, 1.0, size=(63, 6))
        table[:, 1] = 0.0
        cfg = SimulationConfig(tau=0.05, sample_size=50, c_min=1e-6, horizon=2, seed=1)
        gamma = np.ones((400, 400))
        tracemalloc.start()
        try:
            run(cfg, gamma, TabularLikelihood(table), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestReadAhead:
    def test_one_read_of_k_blocks_equals_k_reads(self):
        block = 150
        one, many = agent_streams(3, 0, 1)[0], agent_streams(3, 0, 1)[0]
        whole = one.random(7 * block)
        assert np.array_equal(whole, np.concatenate([many.random(block) for _ in range(7)]))

    @pytest.mark.parametrize("n_streams, steps, block, cap", [
        (4, 5, 150, None), (4, 250, 150, None), (400, 3, 150, None), (500, 2, 150, None),
        # one step's block is past the total cap: chunks of one step
        (4, 5, 150, 500),
        # the per-stream bound gives chunks of 34 steps, the last of 30
        (20, 200, 60, None),
    ], ids=["4-5", "4-250", "400-3", "500-2", "4-5-past-the-cap", "20-200-per-stream"])
    def test_blocks_equal_per_step_reads_within_the_cap(
        self, monkeypatch, n_streams, steps, block, cap
    ):
        if cap is not None:
            monkeypatch.setattr(sampling, "READ_AHEAD_FLOATS", cap)
        total, per_stream = sampling.READ_AHEAD_FLOATS, sampling.STREAM_AHEAD_FLOATS
        one_step = min(total // (n_streams * block), per_stream // block) <= 1
        ahead = sampling.ReadAhead(agent_streams(3, 1, n_streams), steps)
        plain = agent_streams(3, 1, n_streams)
        for _ in range(steps):
            got = sampling.uniforms(ahead, block)
            assert np.array_equal(got, sampling.uniforms(plain, block))
            # at most both bounds, or one step's block if that is more
            assert got.base.size <= max(total, n_streams * block)
            assert got.base.shape[1] <= max(per_stream, block)
            # a one-step chunk is not held past its step
            assert (ahead.buffer.size == 0) == one_step
        # no stream read past the run's last step
        for a, b in zip(ahead.generators, plain):
            np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)

    @pytest.mark.parametrize("horizon, reads", [(10, 1), (30, 3)])
    def test_crowd_run_reads_each_stream_once_per_chunk(self, monkeypatch, horizon, reads):
        # the crowd workload's shape: 400 streams of 150 uniforms a step
        # (tau = 0, m = 50) read 13 steps per chunk
        streams = []

        class Counted:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def random(self, *args, **kwargs):
                self.calls += 1
                return self.rng.random(*args, **kwargs)

        def counted_streams(*args):
            streams.extend(Counted(rng) for rng in agent_streams(*args))
            return streams[-args[-1]:]

        monkeypatch.setattr(dynamics, "agent_streams", counted_streams)
        rng = np.random.default_rng(22)
        state = PopulationState.from_values(grid_setting(25), rng.uniform(-10, 10, (400, 25)))
        cfg = SimulationConfig(tau=0.0, sample_size=50, horizon=horizon, seed=5)
        run(cfg, ring_structure(400, 8), GaussianPeakLikelihood([6.0], 10.0), state)
        assert [s.calls for s in streams] == [reads] * 400


class TestSupportRun:
    @pytest.mark.parametrize("structure", ["ring", "uneven"])
    @pytest.mark.parametrize("kind", ["box1", "box2", "discrete"])
    def test_run_equals_dense_searchsorted_steps(self, monkeypatch, structure, kind):
        # the run steps on the structure's table; the oracle steps each
        # replicate alone and searches its learning rows in their dense
        # (N, N) layout, row by row
        n = 30
        state, _, landscape, target = mixed_setup(kind, n=n, seed=len(structure))
        rng = np.random.default_rng(9)
        gamma = ring_structure(n, 4) if structure == "ring" else uneven_structure(rng, n)
        assert not sampling.support_table(gamma).full
        for c_min in (0.0, 0.05):
            cfg = SimulationConfig(
                tau=0.2, sample_size=12, sigma_c=0.7, c_min=c_min, horizon=6, replicates=3,
                seed=2**32 + 1,
            )
            got = run(cfg, gamma, landscape, state, re_target=target)
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "pick_sources", table_searchsorted_sources)
                rows, finals = per_replicate_run(
                    cfg, gamma, landscape, state, target, seed_sequence_streams
                )
            assert np.array_equal(got.trace.rows, rows)
            assert np.array_equal(got.final_values, finals)


class TestTraceBlocks:
    """``run`` traces the recorded states of a block of steps in one
    ``trace_record`` call; the rows must be those of one call per step."""

    def crowd_case(self, replicates, horizon):
        # N = 400, E = 25: each population holds 10,000 entries, past the
        # 8192 entries an einsum buffers, so a batched whole-population sum
        # would round differently from the per-population one
        rng = np.random.default_rng(replicates)
        state = PopulationState.from_values(grid_setting(25), rng.uniform(0.5, 10, (400, 25)))
        gamma = rng.uniform(0.0, 1.0, size=(400, 400))
        cfg = SimulationConfig(
            tau=0.1, sample_size=8, horizon=horizon, replicates=replicates, seed=6
        )
        return cfg, gamma, GaussianPeakLikelihood([6.0], 10.0), state

    @pytest.mark.parametrize("target", [None, "ones"])
    @pytest.mark.parametrize("replicates", [1, 3])
    def test_blocks_equal_per_step_records(self, monkeypatch, replicates, target):
        cfg, gamma, landscape, state = self.crowd_case(replicates, horizon=7)
        target = None if target is None else np.ones((25, 1))
        rows, finals = per_replicate_run(cfg, gamma, landscape, state, target)
        # a state of this size is a block of one by default; blocks of three
        # steps leave a last block of two of the eight records
        for steps in (1, 3):
            monkeypatch.setattr(dynamics, "TRACE_BLOCK_BYTES", steps * replicates * 400 * 25 * 8)
            got = run(cfg, gamma, landscape, state, re_target=target)
            assert np.array_equal(got.trace.rows, rows, equal_nan=True)
            assert np.array_equal(got.final_values, finals)

    def test_blocks_of_two_replicates_equal_per_replicate_run(self, monkeypatch):
        # blocks of two steps of a two-replicate stack, the last one full
        cfg, gamma, landscape, state = self.crowd_case(2, horizon=5)
        monkeypatch.setattr(dynamics, "TRACE_BLOCK_BYTES", 4 * 400 * 25 * 8)
        target = np.ones((25, 1))
        got = run(cfg, gamma, landscape, state, re_target=target)
        assert got.trace.grid.shape == (2, 6, 5)
        rows, _ = per_replicate_run(cfg, gamma, landscape, state, target)
        assert np.array_equal(got.trace.rows, rows)

    def test_block_holds_sixteen_creation_steps(self):
        setup = preset("test3-creation", replicates=2)
        stack_bytes = 2 * setup.initial.values.nbytes
        assert dynamics.TRACE_BLOCK_BYTES // stack_bytes == 16

    def test_peak_memory_grows_with_the_horizon_only_by_its_rows(self, monkeypatch):
        # N = 10.  The streams are read one step at a time, so that the
        # read-ahead (capped at sampling.READ_AHEAD_FLOATS) is the same at
        # both horizons, and only the trace rows and the block of states
        # may grow with the horizon
        monkeypatch.setattr(sampling, "READ_AHEAD_FLOATS", 0)
        rng = np.random.default_rng(4)
        state = PopulationState.from_values(grid_setting(25), rng.uniform(-5, 5, (10, 25)))
        gamma = rng.uniform(0.1, 1.0, size=(10, 10))
        landscape = GaussianPeakLikelihood([1.0], 1.0)
        peaks = {}
        for horizon in (20, 2000):
            cfg = SimulationConfig(sample_size=5, horizon=horizon, replicates=2)
            tracemalloc.start()
            try:
                run(cfg, gamma, landscape, state, re_target=np.ones((25, 1)))
                peaks[horizon] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        row_bytes = 2 * (2000 - 20) * 5 * 8
        assert peaks[2000] - peaks[20] <= row_bytes + dynamics.TRACE_BLOCK_BYTES


class TestStructureValidation:
    def count_checks(self, monkeypatch):
        import epidyn.influence as influence

        calls = []
        check = influence.validate_structure
        for module in (dynamics, influence):
            monkeypatch.setattr(module, "validate_structure", lambda g: calls.append(1) or check(g))
        return calls

    @pytest.mark.parametrize("structure", ["dense", "ring"])
    def test_run_validates_the_structure_once(self, monkeypatch, structure):
        calls = self.count_checks(monkeypatch)
        n = 8
        gamma = np.ones((n, n)) if structure == "dense" else ring_structure(n, 1)
        assert sampling.support_table(gamma).full == (structure == "dense")
        state = PopulationState.from_values(grid_setting(3), np.linspace(-5, 5, 3 * n).reshape(n, 3))
        cfg = SimulationConfig(tau=0.2, sample_size=4, horizon=6, replicates=2)
        run(cfg, gamma, ConstantLikelihood(1.0), state)
        assert len(calls) == 1

    @pytest.mark.parametrize("entry", [-1.0, math.nan])
    @pytest.mark.parametrize("structure", ["dense", "ring"])
    def test_direct_step_refuses_a_bad_entry(self, structure, entry):
        n = 6
        gamma = np.ones((n, n)) if structure == "dense" else ring_structure(n, 1)
        gamma[0, 1] = entry  # on the table of the ring
        state = PopulationState.from_values(grid_setting(3), np.linspace(-5, 5, 3 * n).reshape(n, 3))
        with pytest.raises(MatrixError):
            step(state, SimulationConfig(), gamma, ConstantLikelihood(1.0),
                 agent_streams(0, 0, n))

    @pytest.mark.parametrize("structure", ["dense", "ring"])
    def test_step_with_a_plan_equals_a_direct_step(self, structure):
        n = 6
        gamma = np.ones((n, n)) if structure == "dense" else ring_structure(n, 1)
        values = np.linspace(-5, 5, 2 * 3 * n).reshape(2, n, 3, 1)
        state = PopulationState._trusted(grid_setting(3), values, 0)
        cfg = SimulationConfig(tau=0.2, sample_size=4)
        landscape = GaussianPeakLikelihood([1.0], 2.0)
        streams = lambda: [g for r in range(2) for g in agent_streams(0, r, n)]
        want = step(state, cfg, gamma, landscape, streams())
        plan = dynamics.step_plan(gamma, 2, 3)
        got = step(state, cfg, gamma, landscape, streams(), plan=plan)
        assert np.array_equal(got.values, want.values)

    def test_step_refuses_a_plan_of_another_structure_or_stack(self):
        n = 6
        gamma = ring_structure(n, 1)
        state = PopulationState.from_values(grid_setting(3), np.linspace(-5, 5, 3 * n).reshape(n, 3))
        plan = dynamics.step_plan(gamma, 1, 3)
        bad = [
            (gamma.copy(), dict(plan=plan)),  # another structure
            (gamma, dict(plan=dynamics.step_plan(gamma, 2, 3))),  # two populations
            (gamma, dict(plan=dynamics.step_plan(gamma, 1, 4))),  # four experiences
        ]
        for structure, kw in bad:
            with pytest.raises(ConfigError):
                step(state, SimulationConfig(), structure, ConstantLikelihood(1.0),
                     agent_streams(0, 0, n), **kw)
