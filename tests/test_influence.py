import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from epidyn import (
    BoundInapplicableError,
    BoxConcepts,
    ConstantLikelihood,
    DiscreteConcepts,
    GaussianPeakLikelihood,
    KnowledgeFunction,
    KnowledgeSetting,
    MatrixError,
    PopulationState,
    compute_credibility,
    compute_social_learning,
    entry_lower_bound,
    grid_setting,
    normalize_rows,
    usage_penalty,
)
from epidyn.influence import (
    ZERO_ROW_GUARD,
    credibility_from_values,
    validate_stochastic,
    validate_structure,
)
from epidyn.knowledge import TabularLikelihood
from epidyn.sampling import SupportTable, support_table

from conftest import FLAT_ROUND_PRINTED, dense_learning, pairwise_penalty, unfused_credibility


@contextlib.contextmanager
def no_warnings():
    """Every warning, numpy's overflow warnings included, as an error."""
    with warnings.catch_warnings(), np.errstate(over="warn"):
        warnings.simplefilter("error")
        yield


def full_credibility(setting, values, landscape, c_min, out=None):
    """credibility_from_values as (..., N, N) matrices, on the complete
    structure's table."""
    table = SupportTable.complete(values.shape[-3])
    return credibility_from_values(setting, values, landscape, c_min, table, out)


def tensor_penalty(values, support):
    """The (N, N, E) tensor form of the 1-D box penalty, kept as a reference."""
    v1 = values[:, :, 0]
    hidden = ~support
    lows = np.where(hidden, np.inf, v1)
    highs = np.where(hidden, -np.inf, v1)
    sel = support[:, None, :]
    hi = np.where(sel, highs[None, :, :], -np.inf).max(axis=2)
    lo = np.where(sel, lows[None, :, :], np.inf).min(axis=2)
    span = hi - lo
    pen = np.where(np.isfinite(span), np.maximum(span, 0.0), 0.0)
    np.fill_diagonal(pen, 0.0)
    return pen


def pairwise_loop_penalty(values, support, concepts):
    """One usage_penalty call per ordered pair of agents, kept as a reference."""
    n = len(values)
    pen = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and support[i].any():
                pen[i, j] = usage_penalty(values[j][support[i]], concepts)
    return pen


PENALTY_SPACES = {
    "box1": BoxConcepts([-10.0], [10.0]),
    "box2": BoxConcepts([-2.0, -2.0], [2.0, 2.0]),
    "discrete": DiscreteConcepts([[0.0], [1.0], [2.5], [4.0], [7.0]]),
}


def mixed_population(rng, kind, n, n_exp, newborn_share=0.25):
    """Random tables whose support masks mix a few shared masks, private
    masks and newborn (all-zero) rows; box values are rounded so that
    agents repeat concepts."""
    concepts = PENALTY_SPACES[kind]
    setting = KnowledgeSetting(np.arange(n_exp)[:, None], concepts)
    if kind == "discrete":
        values = concepts.points[rng.integers(1, len(concepts), size=(n, n_exp))]
    else:
        values = rng.uniform(concepts.lo, concepts.hi, size=(n, n_exp, concepts.dim))
        values = np.round(values, 1)
    shared = (rng.random((3, n_exp)) < 0.6)[rng.integers(0, 3, size=n)]
    private = rng.random((n, n_exp)) < 0.6
    masks = np.where(rng.random(n)[:, None] < 0.5, shared, private)
    masks[rng.random(n) < newborn_share] = False
    values[~masks] = 0.0
    return setting, values


def einsum_discrete_penalty(setting, values, support):
    """The einsum form of the discrete penalty for one population, kept as a
    reference: distinct nonzero concepts of j over i's support, minus one."""
    concepts = setting.concepts
    idx = concepts.index_of(values.reshape(-1, values.shape[-1])).reshape(values.shape[:-1])
    onehot = (idx[..., None] == np.arange(1, len(concepts))).astype(float)
    used = np.einsum("ie,jec->ijc", support.astype(float), onehot) > 0.0
    pen = np.maximum(used.sum(axis=-1) - 1, 0).astype(float)
    np.fill_diagonal(pen, 0.0)
    return pen


def credibility_case(rng, landscape, n, n_exp, n_pops):
    """An (n_pops, n, n_exp, l) stack of mixed populations with newborn rows,
    its setting and landscape; tabular tables hold exact zeros."""
    kind = "discrete" if landscape == "tabular-zeros" else "box1"
    pops = [mixed_population(rng, kind, n, n_exp) for _ in range(n_pops)]
    setting = pops[0][0]
    if landscape == "gaussian-peak":
        land = GaussianPeakLikelihood([1.0], 4.0)
    elif landscape == "constant-0":
        land = ConstantLikelihood(0.0)
    else:
        table = rng.uniform(0.0, 1.0, size=(n_exp, len(setting.concepts)))
        table[rng.random(table.shape) < 0.3] = 0.0
        land = TabularLikelihood(table)
    return setting, np.stack([values for _, values in pops]), land


class TestCredibility:
    def test_flat_round_example_matches_print_except_entry_24(self, flat_round):
        _, population, landscape = flat_round
        C = compute_credibility(population, landscape, c_min=0.0)
        expected = FLAT_ROUND_PRINTED.copy()
        expected[1, 3] = 0.5  # the formula's value at the deviating entry
        assert np.array_equal(C, expected)

    def test_unexperienced_entries_cost_half(self, flat_round):
        # agent 3 judges agent 1, who lacks the r1 experience
        _, population, landscape = flat_round
        C = compute_credibility(population, landscape, c_min=0.0)
        assert C[2, 0] == 0.5

    def test_shared_single_concept_gives_all_ones(self):
        setting = grid_setting(4)
        population = [KnowledgeFunction.constant(setting, 2.0) for _ in range(3)]
        C = compute_credibility(population, ConstantLikelihood(1.0), c_min=0.0)
        assert np.array_equal(C, np.ones((3, 3)))

    def test_empty_support_grants_unit_product(self):
        setting = grid_setting(4)
        population = [
            KnowledgeFunction.zero(setting),
            KnowledgeFunction.constant(setting, 1.0),
        ]
        C = compute_credibility(population, ConstantLikelihood(0.25), c_min=0.0)
        # newborn row: empty product, no penalty applies
        assert np.array_equal(C[0], [1.0, 1.0])

    def test_exact_zero_likelihood_survives_log_space(self, flat_round):
        _, population, landscape = flat_round
        C = compute_credibility(population, landscape, c_min=0.0)
        assert C[1, 1] == 0.0 and C[2, 1] == 0.0 and C[3, 1] == 0.0

    def test_floor_monotonicity(self, flat_round):
        _, population, landscape = flat_round
        lo = compute_credibility(population, landscape, c_min=0.0)
        hi = compute_credibility(population, landscape, c_min=0.3)
        assert np.all(hi >= lo)
        assert np.all(hi >= 0.3)

    def test_negative_floor_rejected(self, flat_round):
        _, population, landscape = flat_round
        with pytest.raises(MatrixError):
            compute_credibility(population, landscape, c_min=-0.1)

    def test_entries_never_exceed_one(self):
        rng = np.random.default_rng(11)
        setting = grid_setting(6)
        for _ in range(50):
            population = [
                KnowledgeFunction(setting, rng.uniform(-10, 10, size=6))
                for _ in range(4)
            ]
            C = compute_credibility(
                population, ConstantLikelihood(1.0), float(rng.uniform(0, 1))
            )
            assert np.all(C <= 1.0 + 1e-15)

    @pytest.mark.parametrize("landscape", ["gaussian-peak", "constant-0", "tabular-zeros"])
    @pytest.mark.parametrize("c_min", [0.0, 0.05])
    @pytest.mark.parametrize("n_pops", [1, 3])
    def test_equals_unfused_expression(self, landscape, c_min, n_pops):
        rng = np.random.default_rng([n_pops, int(100 * c_min), len(landscape)])
        setting, stack, land = credibility_case(rng, landscape, 9, 6, n_pops)
        for values in (stack, stack[0]):
            got = full_credibility(setting, values, land, c_min)
            assert np.array_equal(got, unfused_credibility(setting, values, land, c_min))

    def test_arguments_are_not_written(self):
        rng = np.random.default_rng(17)
        setting, stack, land = credibility_case(rng, "tabular-zeros", 8, 5, 2)
        kept = stack.copy()
        cred = full_credibility(setting, stack, land, 0.05)
        assert np.array_equal(stack, kept)
        gamma = rng.uniform(0.0, 1.0, size=(8, 8))
        gamma[0] = 0.0  # a dead row
        cred_kept, gamma_kept = cred.copy(), gamma.copy()
        compute_social_learning(gamma, cred)
        assert np.array_equal(cred, cred_kept) and np.array_equal(gamma, gamma_kept)
        printed = FLAT_ROUND_PRINTED.copy()
        normalize_rows(FLAT_ROUND_PRINTED)
        assert np.array_equal(FLAT_ROUND_PRINTED, printed)

    def test_out_arrays_receive_the_results(self):
        rng = np.random.default_rng(19)
        setting, stack, land = credibility_case(rng, "tabular-zeros", 8, 5, 2)
        out = np.full((2, 8, 8), np.nan)
        cred = full_credibility(setting, stack, land, 0.05, out=out)
        assert cred is out
        assert np.array_equal(cred, full_credibility(setting, stack, land, 0.05))
        gamma = rng.uniform(0.0, 1.0, size=(8, 8))
        gamma[0] = 0.0  # a dead row
        expected = compute_social_learning(gamma, cred)
        # the credibility itself may take the learning matrix
        assert compute_social_learning(gamma, cred, out=cred) is cred
        assert np.array_equal(cred, expected)
        # on a table with gaps, the (R, N, k) buffer takes both in turn
        gamma = np.eye(8) + np.eye(8, k=1) + np.eye(8, k=-3)
        gamma[0] = 0.0
        table = support_table(gamma)
        assert not table.full
        out = np.full((2,) + table.agents.shape, np.nan)
        cred = credibility_from_values(setting, stack, land, 0.05, table, out)
        assert cred is out
        full = full_credibility(setting, stack, land, 0.05)
        assert np.array_equal(cred, table.entries(full))
        learning = compute_social_learning(table.entries(gamma), cred, cred, table)
        assert learning is out
        dense = compute_social_learning(gamma, full)
        assert np.array_equal(learning[:, 1:], table.entries(dense)[:, 1:])
        assert np.all(learning[:, 0] == 0.0) and np.all(dense[:, 0] == 1.0 / 8)

    def test_long_products_accumulate_in_log_space(self):
        # 2000 factors of 0.5 underflow pairwise products but not log sums
        setting = grid_setting(2000)
        population = [
            KnowledgeFunction.constant(setting, 1.0),
            KnowledgeFunction.constant(setting, 2.0),
        ]
        C = compute_credibility(population, ConstantLikelihood(0.5), c_min=0.0)
        assert C[0, 1] == pytest.approx(np.exp(2000 * np.log(0.5)))


class TestPairwisePenalty:
    @pytest.mark.parametrize("kind", sorted(PENALTY_SPACES))
    @pytest.mark.parametrize("n", [1, 2, 9, 24])
    def test_equals_pairwise_references(self, kind, n):
        rng = np.random.default_rng([n, sorted(PENALTY_SPACES).index(kind)])
        for newborn_share in (0.0, 0.25, 1.0):
            setting, values = mixed_population(rng, kind, n, 6, newborn_share)
            support = np.any(values != 0.0, axis=-1)
            got = pairwise_penalty(setting, values, support)
            assert (got == pairwise_loop_penalty(values, support, setting.concepts)).all()
            if kind == "box1":
                assert (got == tensor_penalty(values, support)).all()

    def test_newborn_rows_and_all_newborn_population(self):
        setting, values = mixed_population(np.random.default_rng(3), "box1", 8, 5, 0.0)
        values[[2, 5]] = 0.0
        support = np.any(values != 0.0, axis=-1)
        pen = pairwise_penalty(setting, values, support)
        assert np.all(pen[[2, 5]] == 0.0)
        zero = np.zeros_like(values)
        assert np.all(pairwise_penalty(setting, zero, np.zeros((8, 5), bool)) == 0.0)

    def test_single_agent_has_zero_penalty(self):
        setting, values = mixed_population(np.random.default_rng(4), "discrete", 1, 5, 0.0)
        support = np.any(values != 0.0, axis=-1)
        assert np.array_equal(pairwise_penalty(setting, values, support), [[0.0]])

    def test_many_distinct_masks_span_several_blocks(self):
        # 150 private masks over 40 experiences exceed one block of masks
        rng = np.random.default_rng(5)
        setting = grid_setting(40)
        values = np.round(rng.uniform(-10, 10, size=(150, 40, 1)), 1)
        values[rng.random((150, 40)) < 0.4] = 0.0
        support = np.any(values != 0.0, axis=-1)
        assert len({row.tobytes() for row in support}) == 150
        got = pairwise_penalty(setting, values, support)
        assert (got == tensor_penalty(values, support)).all()

    @pytest.mark.parametrize("kind", sorted(PENALTY_SPACES))
    @pytest.mark.parametrize("masks", ["shared", "distinct"])
    def test_rows_copied_to_agents_only_when_masks_are_shared(self, kind, masks):
        # with every (population, mask) pair distinct the per-mask rows are
        # the agents' rows, taken without the copy
        rng = np.random.default_rng([7, sorted(PENALTY_SPACES).index(kind)])
        concepts = PENALTY_SPACES[kind]
        setting = KnowledgeSetting(np.arange(6)[:, None], concepts)
        if kind == "discrete":
            tables = concepts.points[rng.integers(1, len(concepts), size=(2, 9, 6))]
        else:
            tables = np.round(rng.uniform(0.1, 1.9, size=(2, 9, 6, concepts.dim)), 1)
        support = (np.arange(1, 10)[:, None] >> np.arange(6)) & 1 == 1  # distinct
        if masks == "shared":
            support[[3, 7]] = support[0]
        stack = np.where(support[..., None], tables, 0.0)
        for values in (stack[0], stack):
            sup = np.any(values != 0.0, axis=-1)
            got = pairwise_penalty(setting, values, sup).reshape(-1, 9, 9)
            for p, pop in enumerate(values.reshape((-1,) + stack.shape[1:])):
                want = pairwise_loop_penalty(pop, sup.reshape(-1, 9, 6)[p], concepts)
                assert np.array_equal(got[p], want)

    @pytest.mark.parametrize("n_pops", [1, 2])
    def test_discrete_counts_equal_einsum_form(self, n_pops):
        # 300 agents and 4 colours give blocks of 109 masks; the private
        # masks alone fill more than one
        rng = np.random.default_rng(n_pops)
        pops = [mixed_population(rng, "discrete", 300, 20) for _ in range(n_pops)]
        setting = pops[0][0]
        stack = np.stack([values for _, values in pops])
        support = np.any(stack != 0.0, axis=-1)
        assert len({row.tobytes() for row in support[0]}) > 109
        got = pairwise_penalty(setting, stack, support)
        for p in range(n_pops):
            assert np.array_equal(got[p], einsum_discrete_penalty(setting, stack[p], support[p]))

    @pytest.mark.parametrize("kind", sorted(PENALTY_SPACES))
    def test_stack_equals_each_population_alone(self, kind):
        # populations share masks but not values, so a mask is evaluated
        # once per population that holds it
        rng = np.random.default_rng(sorted(PENALTY_SPACES).index(kind))
        setting, first = mixed_population(rng, kind, 7, 6)
        pops = [first]
        for _ in range(3):
            other = mixed_population(rng, kind, 7, 6, 0.0)[1]
            other[first == 0.0] = 0.0
            other[(first != 0.0) & (other == 0.0)] = first[(first != 0.0) & (other == 0.0)]
            pops.append(other)
        stack = np.stack(pops)
        support = np.any(stack != 0.0, axis=-1)
        got = pairwise_penalty(setting, stack, support)
        assert got.shape == (4, 7, 7)
        for p, values in enumerate(pops):
            assert np.array_equal(got[p], pairwise_penalty(setting, values, support[p]))
        if kind == "discrete":
            landscape = TabularLikelihood(rng.uniform(0.0, 1.0, size=(6, len(setting.concepts))))
        else:
            landscape = GaussianPeakLikelihood([0.5] * setting.concept_dim, 2.0)
        cred = full_credibility(setting, stack, landscape, 0.05)
        gamma = rng.uniform(0.0, 1.0, size=(7, 7))
        learning = compute_social_learning(gamma, cred)
        for p, values in enumerate(pops):
            alone = full_credibility(setting, values, landscape, 0.05)
            assert np.array_equal(cred[p], alone)
            assert np.array_equal(learning[p], compute_social_learning(gamma, alone))

    def test_credibility_peak_memory_at_400_agents(self):
        # The (N, N, E) penalty tensors alone took about 39 MB at this size.
        rng = np.random.default_rng(71)
        values = rng.uniform(-10, 10, size=(400, 25, 1))
        values[rng.random((400, 25)) < 0.3] = 0.0
        landscape = GaussianPeakLikelihood([1.0], 1.0)
        tracemalloc.start()
        try:
            full_credibility(grid_setting(25), values, landscape, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_credibility_peak_memory_one_shared_mask(self):
        # Every agent conceptualizes every experience, as in a crowd step.
        # Built in place, credibility holds about two (N, N) float arrays
        # (1.25 MiB each) at its peak; the unfused stages held four.
        rng = np.random.default_rng(72)
        values = rng.uniform(0.5, 10, size=(400, 25, 1))
        landscape = GaussianPeakLikelihood([1.0], 1.0)
        tracemalloc.start()
        try:
            full_credibility(grid_setting(25), values, landscape, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSocialLearning:
    def test_identity_structure_all_ones_credibility(self):
        lam = compute_social_learning(np.eye(3), np.ones((3, 3)))
        assert np.array_equal(lam, np.eye(3))

    def test_dead_row_falls_back_to_uniform(self):
        gamma = np.array([[0.0, 0.0], [1.0, 1.0]])
        lam = compute_social_learning(gamma, np.ones((2, 2)))
        assert np.array_equal(lam[0], [0.5, 0.5])
        assert np.array_equal(lam[1], [0.5, 0.5])

    def test_audience_row_weights(self):
        gamma = np.array([[1.0, 0.01, 0.01, 0.01, 0.01]] * 5)
        lam = compute_social_learning(gamma, np.ones((5, 5)))
        assert lam[0, 0] == pytest.approx(1.0 / 1.04, abs=1e-15)
        assert lam[0, 1] == pytest.approx(0.01 / 1.04, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError):
            compute_social_learning(np.eye(3), np.ones((2, 2)))

    def test_negative_structure_rejected(self):
        with pytest.raises(MatrixError):
            compute_social_learning(-np.eye(2), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_structure_rejected(self, bad):
        gamma = np.ones((2, 2))
        gamma[0, 1] = bad
        with pytest.raises(MatrixError):
            validate_structure(gamma)
        with pytest.raises(MatrixError):
            compute_social_learning(gamma, np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
    def test_negative_or_nonfinite_credibility_rejected(self, bad):
        with pytest.raises(MatrixError):
            compute_social_learning(np.ones((2, 2)), [[1.0, bad], [1.0, 1.0]])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, -1e-300])
    @pytest.mark.parametrize(
        "where, message",
        [
            ("structure", "structure matrix entries must be finite and nonnegative"),
            ("credibility", "credibility entries must be finite and nonnegative"),
        ],
    )
    def test_entry_check_messages(self, entry, where, message):
        bad = np.ones((2, 2))
        bad[0, 1] = entry
        gamma, cred = (bad, np.ones((2, 2))) if where == "structure" else (np.ones((2, 2)), bad)
        with pytest.raises(MatrixError) as err:
            compute_social_learning(gamma, cred)
        assert type(err.value) is MatrixError and str(err.value) == message
        if where == "structure":
            with pytest.raises(MatrixError) as err:
                validate_structure(gamma)
            assert type(err.value) is MatrixError and str(err.value) == message

    def test_negative_zero_entries_pass(self):
        gamma = np.array([[1.0, -0.0], [1.0, 1.0]])
        assert validate_structure(gamma) is not None
        lam = compute_social_learning(gamma, gamma)
        assert np.array_equal(lam, [[1.0, 0.0], [0.5, 0.5]])

    def test_empty_structure(self):
        # a learning matrix for a (0, 0) structure has no uniform row 1/N to
        # fall back to, so the check refuses it
        for check in (
            lambda: validate_structure(np.zeros((0, 0))),
            lambda: compute_social_learning(np.zeros((0, 0)), np.zeros((0, 0))),
        ):
            with pytest.raises(MatrixError, match="at least one agent"):
                check()

    def test_rows_stochastic_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            gamma = rng.uniform(0.0, 5.0, size=(n, n))
            cred = rng.uniform(0.0, 1.0, size=(n, n))
            lam = compute_social_learning(gamma, cred)
            assert np.all(lam >= 0.0)
            assert np.all(np.abs(lam.sum(axis=1) - 1.0) < 1e-12)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(6)
        gamma = rng.uniform(0.1, 2.0, size=(4, 4))
        cred = rng.uniform(0.1, 1.0, size=(4, 4))
        lam = compute_social_learning(gamma, cred)
        scaled = gamma.copy()
        scaled[2] *= 37.5
        lam2 = compute_social_learning(scaled, cred)
        assert np.allclose(lam[2], lam2[2], atol=1e-15)
        assert np.array_equal(lam[[0, 1, 3]], lam2[[0, 1, 3]])

    OVERFLOWING = [
        # the row sum overflows: the plain quotient gives row 0 = [0, 0]
        (np.ones((2, 2)), [[1e308, 1e308], [1.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]),
        # a product overflows: the plain quotient gives row 0 = [nan, 0]
        ([[2.0, 1.0], [1.0, 1.0]], [[1e308, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.5, 0.5]]),
    ]

    @pytest.mark.parametrize("gamma, cred, want", OVERFLOWING)
    def test_overflowing_rows_stay_stochastic(self, gamma, cred, want):
        with no_warnings():  # the rescue covers the overflow
            lam = compute_social_learning(gamma, cred)
            alias = np.array(cred)
            out = compute_social_learning(gamma, alias, out=alias)
        assert np.array_equal(lam, want)
        assert out is alias and np.array_equal(out, want)
        assert np.array_equal(lam.sum(axis=1), [1.0, 1.0])

    @pytest.mark.parametrize("gamma, cred, want", OVERFLOWING)
    def test_overflowing_rows_stay_stochastic_on_the_table(self, gamma, cred, want):
        # the 2 x 2 inputs as one block of a 4-agent structure whose
        # column table has gaps
        G, C = np.zeros((4, 4)), np.ones((2, 4, 4))
        G[:2, :2], G[2:, 2:] = gamma, [[1.0, 0.0], [3.0, 1.0]]
        C[:, :2, :2] = cred
        C[1, 3, 2] = 1e308  # an overflowing row of the other population
        table = support_table(G)
        assert not table.full
        with no_warnings():  # the rescue covers the overflow
            dense = compute_social_learning(G, C)
            entries = compute_social_learning(table.entries(G), table.entries(C), table=table)
        assert np.array_equal(dense[:, :2, :2], [want, want])
        assert np.array_equal(dense.sum(axis=-1), np.ones((2, 4)))
        scattered = np.zeros((2, 16))
        scattered[:, table.gather] = entries
        assert np.array_equal(scattered.reshape(2, 4, 4), dense)

    def test_rescued_rows_raise_no_warning(self):
        gamma, cred = np.ones((2, 2)), [[1e308, 1e308], [1.0, 1.0]]
        with no_warnings():
            lam = compute_social_learning(gamma, cred)
            rows = normalize_rows(cred)
        assert np.array_equal(lam, [[0.5, 0.5], [0.5, 0.5]])
        assert np.array_equal(rows, lam)

    def test_a_normal_step_never_enters_the_rescue(self, monkeypatch):
        # credibility is at most 1, so max(G) * max(C) * k stays far below
        # the overflow bound: no step pays for the overflow guard
        import epidyn.dynamics as dynamics
        import epidyn.influence as influence

        calls = []
        rescue = influence._rescued_products
        monkeypatch.setattr(
            influence, "_rescued_products", lambda *a: calls.append(1) or rescue(*a)
        )
        compute_social_learning(np.ones((2, 2)), [[1e308, 1e308], [1.0, 1.0]])
        assert calls == [1]  # an overflowing row still takes it
        calls.clear()
        n = 40
        ring = np.zeros((n, n))
        for d in range(-8, 9):
            ring[np.arange(n), (np.arange(n) + d) % n] = 2.0
        setting = grid_setting(25)
        values = np.random.default_rng(5).uniform(-10, 10, size=(n, 25))
        state = dynamics.PopulationState.from_values(setting, values)
        cfg = dynamics.SimulationConfig(tau=0.1, sample_size=20, c_min=0.01, horizon=3)
        for gamma in (ring, np.ones((n, n))):
            dynamics.run(cfg, gamma, GaussianPeakLikelihood([6.0], 10.0), state)
        assert calls == []

    def test_rows_that_do_not_overflow_keep_their_bits(self):
        rng = np.random.default_rng(31)
        gamma = rng.uniform(0.0, 5.0, size=(6, 6))
        cred = rng.uniform(0.0, 1.0, size=(3, 6, 6))
        plain = gamma * cred
        plain /= plain.sum(axis=-1, keepdims=True)
        cred[1, 4] = [1e308, 0.0, 3e307, 1.0, 0.0, 1e300]
        with no_warnings():
            lam = compute_social_learning(gamma, cred)
        kept = np.ones((3, 6), dtype=bool)
        kept[1, 4] = False
        assert np.array_equal(lam[kept], plain[kept])
        assert abs(lam[1, 4].sum() - 1.0) <= 1e-15
        exact = gamma[4] * (cred[1, 4] / 1e308)  # no product overflows at this scale
        np.testing.assert_allclose(lam[1, 4], exact / exact.sum(), rtol=1e-15)

    def test_entry_bound_holds_in_its_sound_regime(self):
        # The closed-form bound's inequality chain needs
        # N * (1 - N*m) >= 1, i.e. m <= (N-1)/N^2 after row normalization;
        # inside that regime the learning matrix respects it.
        rng = np.random.default_rng(8)
        setting = grid_setting(4)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 6))
            gamma = rng.uniform(0.02, 1.0, size=(n, n))
            m = normalize_rows(gamma).min()
            if not 0.0 < m <= (n - 1) / n**2:
                continue
            c_min = float(rng.uniform(0.05, 0.9))
            population = [
                KnowledgeFunction(setting, rng.uniform(-10, 10, size=4))
                for _ in range(n)
            ]
            cred = compute_credibility(population, ConstantLikelihood(1.0), c_min)
            lam = compute_social_learning(gamma, cred)
            assert lam.min() >= entry_lower_bound(gamma, c_min) - 1e-12
            checked += 1

    def test_entry_bound_is_not_universal_outside_regime(self):
        # Near-uniform structure: the printed formula exceeds the true
        # minimum entry, which is why downstream logic uses exact minima.
        gamma = np.array([[0.6, 0.4], [0.4, 0.6]])
        c_min = 0.1
        cred = np.array([[1.0, 0.1], [0.1, 1.0]])  # in [c_min, 1]
        lam = compute_social_learning(gamma, cred)
        assert entry_lower_bound(gamma, c_min) > lam.min()


class TestPublicForms:
    """The (N, N) forms run on the complete structure's table; they equal
    the dense oracles, dead rows included."""

    @pytest.mark.parametrize("landscape", ["gaussian-peak", "constant-0", "tabular-zeros"])
    @pytest.mark.parametrize("n_pops", [1, 3])
    def test_equal_the_dense_oracles(self, landscape, n_pops):
        rng = np.random.default_rng([n_pops, len(landscape), 41])
        setting, stack, land = credibility_case(rng, landscape, 9, 6, n_pops)
        gamma = rng.uniform(0.0, 1.0, size=(9, 9))
        gamma[0] = 0.0  # a dead row
        gamma[2, 4:] = 0.0
        for c_min in (0.0, 0.05):
            want = unfused_credibility(setting, stack, land, c_min)
            cred = full_credibility(setting, stack, land, c_min)
            assert np.array_equal(cred, want)
            for p, values in enumerate(stack):
                population = PopulationState.from_values(setting, values).functions
                assert np.array_equal(compute_credibility(population, land, c_min), want[p])
            cred[:, 3] = 0.0  # a row dead by its credibility
            lam = compute_social_learning(gamma, cred)
            dead = (gamma * cred).sum(axis=-1) <= ZERO_ROW_GUARD
            assert dead[:, [0, 3]].all()
            assert np.array_equal(lam, dense_learning(gamma, cred))
            assert np.all(lam[dead] == 1.0 / 9)


def entries_then_layout(gamma, cred, out=None):
    """The public learning matrix as the products into a fresh entries
    array, then laid out: the oracle of the full table's one pass."""
    from epidyn.influence import _learning

    G = validate_structure(np.asarray(gamma, dtype=float))
    table = support_table(G)
    entries, dead = _learning(table.entries(G), table.entries(np.asarray(cred, float)), None,
                              table, None)
    return table.layout(entries, dead, out)


class TestFullTableLearning:
    """On a full table the public learning matrix writes its products
    straight into the result."""

    def cases(self):
        rng = np.random.default_rng(73)
        n = 9
        gamma = rng.uniform(0.0, 2.0, (n, n))
        gamma[0] = 0.0  # dead by its structure
        cred = rng.uniform(0.0, 1.0, (3, n, n))
        cred[0, 2] = 0.0  # dead by its credibility
        cred[1, 3] = 1e-310  # its sum is below ZERO_ROW_GUARD: dead
        cred[1, 4] = 1e308  # its sum overflows: rescued
        cred[2, 5, :4] = 1e308  # its products overflow: rescued
        return gamma, cred

    def test_equals_entries_then_layout(self):
        gamma, cred = self.cases()
        assert support_table(gamma).full
        with no_warnings():
            want = entries_then_layout(gamma, cred)
            for C in (cred, cred[1]):
                got = compute_social_learning(gamma, C)
                assert np.array_equal(got, want if C is cred else want[1])
                assert np.array_equal(np.signbit(got), np.signbit(want if C is cred else want[1]))
            out = np.full(cred.shape, np.nan)
            assert compute_social_learning(gamma, cred, out=out) is out
            alias = cred.copy()
            assert compute_social_learning(gamma, alias, out=alias) is alias
        assert np.array_equal(out, want) and np.array_equal(alias, want)
        assert np.all(want[:, 0] == 1.0 / 9) and np.all(want[0, 2] == 1.0 / 9)
        assert np.all(want[1, 3] == 1.0 / 9)
        assert abs(want[1, 4].sum() - 1.0) <= 1e-15 and abs(want[2, 5].sum() - 1.0) <= 1e-15

    def test_peaks_below_one_and_a_half_matrices(self):
        # the result is the only (N, N) array made; the entries-then-layout
        # form made two
        n = 1000
        rng = np.random.default_rng(74)
        gamma, cred = rng.uniform(0.0, 1.0, (n, n)), rng.uniform(0.0, 1.0, (n, n))
        gamma[:, 0] = 1.0  # a complete row: a full table
        tracemalloc.start()
        try:
            got = compute_social_learning(gamma, cred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * gamma.nbytes
        assert np.array_equal(got, entries_then_layout(gamma, cred))


class TestNormalizeRows:
    def test_flat_round_printed_rows(self):
        out = normalize_rows(FLAT_ROUND_PRINTED)
        assert np.array_equal(out[0], [0.25, 0.25, 0.25, 0.25])
        assert np.array_equal(out[2], [0.25, 0.0, 0.5, 0.25])
        assert np.array_equal(out[3], [0.2, 0.0, 0.4, 0.4])

    def test_identity(self):
        assert np.array_equal(normalize_rows(np.eye(4)), np.eye(4))

    def test_simple_row(self):
        out = normalize_rows(np.array([[2.0, 2.0], [1.0, 3.0]]))
        assert np.array_equal(out[0], [0.5, 0.5])

    def test_zero_row_uniform(self):
        out = normalize_rows(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        assert np.array_equal(out[0], [1 / 3, 1 / 3, 1 / 3])
        assert np.array_equal(out[1], [1.0, 0.0, 0.0])

    def test_overflowing_row_sum_stays_stochastic(self):
        # the plain quotient gives row 0 = [0, 0, 0]; row 1 keeps its bits
        M = np.array([[1e308, 1e308, 0.0], [1.0, 2.0, 4.0], [1.5e308, 1.0, 2e307]])
        kept = M.copy()
        with no_warnings():  # the rescue covers the overflow
            out = normalize_rows(M)
        assert np.array_equal(M, kept)
        assert np.array_equal(out[0], [0.5, 0.5, 0.0])
        assert np.array_equal(out[1], M[1] / M[1].sum())
        scaled = M[2] / 1e308  # no sum overflows at this scale
        np.testing.assert_allclose(out[2], scaled / scaled.sum(), rtol=1e-15)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-15)

    def test_negative_entries_rejected(self):
        with pytest.raises(MatrixError):
            normalize_rows(np.array([[1.0, -0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entries_rejected(self, bad):
        # a NaN row used to come back as NaN, with a RuntimeWarning
        with pytest.raises(MatrixError):
            normalize_rows(np.array([[0.5, 0.5], [bad, 0.5]]))

    @pytest.mark.parametrize("structure", ["full", "gathered"])
    def test_equals_learning_under_unit_credibility(self, structure):
        rng = np.random.default_rng(337)
        for n in (2, 5, 9, 40):
            M = rng.uniform(0.0, 4.0, (n, n))
            if structure == "full":
                M *= rng.random((n, n)) < 0.7
                M[-1] = 1.0  # a row wider than N / 2
            else:  # at most N / 2 random columns a row
                M *= rng.random((n, n)).argsort(axis=1) < n // 2
            M[0] = 0.0  # a dead row
            if n > 2:
                M[1] = 0.0
                M[1, 0] = 1e-301  # a row summing to less than ZERO_ROW_GUARD
            if n > 3:
                M[2] = 0.0
                M[2, [0, 2]] = 1e308  # a row whose sum overflows
            assert support_table(M).full == (structure == "full")
            with no_warnings():  # the rescue covers the overflow
                got = normalize_rows(M)
            assert np.array_equal(got, compute_social_learning(M, np.ones((n, n))))
            assert np.all(got[0] == 1.0 / n)
            if n > 2:
                assert np.all(got[1] == 1.0 / n)
            assert np.all(np.abs(got.sum(axis=1) - 1.0) <= 1e-15)


class TestSupportTableLayout:
    @pytest.mark.parametrize("structure", ["complete", "ring"])
    def test_layout_equals_dense_learning(self, structure):
        rng = np.random.default_rng(341)
        n = 7  # rows shorter than numpy's pairwise blocks: zeros leave a sum's bits
        if structure == "complete":
            gamma = rng.uniform(0.0, 1.0, (n, n))
        else:
            gamma = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-3)
        gamma[0] = 0.0  # a row dead by its structure
        cred = rng.uniform(0.0, 1.0, (3, n, n))
        cred[1, 4] = 0.0  # a row dead by its credibility
        table = support_table(gamma)
        assert table.full == (structure == "complete")
        entries = compute_social_learning(table.entries(gamma), table.entries(cred), table=table)
        dead = ~entries.any(axis=-1)
        assert dead[:, 0].all() and dead[1, 4] and dead.sum() == 4
        want = dense_learning(gamma, cred)
        assert np.array_equal(table.layout(entries, dead), want)
        out = np.full(cred.shape, np.nan)
        assert table.layout(entries, dead, out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(table.entries(out)[~dead], entries[~dead])


class TestValidateStochastic:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entries_rejected(self, bad):
        # a NaN row sum fails no comparison, so [[0.5, 0.5], [nan, 0.5]] passed
        with pytest.raises(MatrixError):
            validate_stochastic(np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_spectral_tools_refuse_a_nan_matrix(self):
        from epidyn import analyze, dobrushin_coefficient

        nan_row = np.array([[0.5, 0.5], [math.nan, 0.5]])
        with pytest.raises(MatrixError):
            dobrushin_coefficient(nan_row)
        with pytest.raises(MatrixError):
            analyze(nan_row)
