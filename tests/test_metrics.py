import math
import tracemalloc

import numpy as np
import pytest

from epidyn import (
    ConstantLikelihood,
    KnowledgeFunction,
    MetricTrace,
    PopulationState,
    compute_credibility,
    compute_social_learning,
    consensus_distance,
    dobrushin_coefficient,
    grid_setting,
    knowledge_distance,
    nearest_individual_distance,
    relative_entropy,
)
from epidyn.metrics import TRACE_COLUMNS, _value_tensor, trace_record


def oracle_consensus_distance(state) -> float:
    """The one-population consensus distance that the stacked
    ``metrics._distances`` replaced, kept as its oracle."""
    V = _value_tensor(state)
    return float(np.linalg.norm(V - V.mean(axis=0)))


def oracle_nearest_distance(state) -> float:
    """The one-population nearest-individual distance that the stacked
    ``metrics._distances`` replaced, kept as its oracle."""
    # Parallel-axis identity: sum_i |v_i - v_j|^2 = sum_i |v_i - mu|^2
    # + N |v_j - mu|^2, so the nearest individual is the agent closest to the
    # mean mu.  Its total is summed directly from its own differences, which
    # are exactly zero at consensus (the identity's form would cancel).
    V = _value_tensor(state)
    centred = V - V.mean(axis=0)
    j = np.argmin(np.einsum("iel,iel->i", centred, centred))
    diffs = V - V[j]
    return float(np.sqrt(np.einsum("iel,iel->", diffs, diffs)))


def state_of(*levels, n_exp=5):
    setting = grid_setting(n_exp)
    return PopulationState(
        [KnowledgeFunction.constant(setting, v) for v in levels]
    )


class TestConsensusDistance:
    def test_consensus_state_is_zero(self):
        assert consensus_distance(state_of(4.0, 4.0, 4.0)) == 0.0

    def test_two_agent_hand_value(self):
        assert consensus_distance(state_of(2.0, 6.0)) == pytest.approx(
            math.sqrt(40), abs=1e-12
        )

    def test_audience_initial_value(self):
        # one source at 5, four listeners at 1: mean 1.8,
        # 5 * (3.2^2 + 4 * 0.8^2) = 64
        assert consensus_distance(state_of(5.0, 1.0, 1.0, 1.0, 1.0)) == pytest.approx(
            8.0, abs=1e-12
        )


def tensor_nearest_distance(V):
    # The (N, N, E, l) difference tensor form, kept as a reference.
    diffs = V[:, None] - V[None, :]
    return float(np.sqrt(np.einsum("ijel,ijel->j", diffs, diffs).min()))


def random_population(kind, rng):
    n = int(rng.integers(2, 40))
    n_exp = int(rng.integers(1, 9))
    if kind == "box1":
        return rng.uniform(-10, 10, size=(n, n_exp, 1))
    if kind == "box2":
        return rng.uniform(-3, 7, size=(n, n_exp, 2))
    if kind == "integer":
        return rng.integers(-3, 4, size=(n, n_exp, 1)).astype(float)
    if kind == "duplicated":
        base = rng.uniform(0, 10, size=(int(rng.integers(1, 5)), n_exp, 1))
        return base[rng.integers(0, len(base), size=n)]
    return rng.uniform(-10, 10, size=(1, n_exp, int(rng.integers(1, 3))))


class TestNearestIndividualDistance:
    def test_audience_initial_matches_published_start(self):
        d = nearest_individual_distance(state_of(5.0, 1.0, 1.0, 1.0, 1.0))
        assert d == pytest.approx(8.94427190999917, abs=1e-9)

    def test_two_communities_initial(self):
        d = nearest_individual_distance(state_of(5.0, 5.0, 7.0, 7.0))
        assert d == pytest.approx(6.32455532033676, abs=1e-9)

    def test_consensus_state_is_zero(self):
        assert nearest_individual_distance(state_of(3.0, 3.0)) == 0.0

    def test_projection_never_exceeds_nearest_individual(self):
        rng = np.random.default_rng(19)
        setting = grid_setting(4)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            state = PopulationState.from_values(
                setting, rng.uniform(-10, 10, size=(n, 4, 1))
            )
            assert consensus_distance(state) <= nearest_individual_distance(state) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(20)
        setting = grid_setting(3)
        values = rng.uniform(-10, 10, size=(5, 3, 1))
        state = PopulationState.from_values(setting, values)
        shuffled = PopulationState.from_values(setting, values[[3, 1, 4, 0, 2]])
        assert consensus_distance(state) == pytest.approx(
            consensus_distance(shuffled), abs=1e-12
        )
        assert nearest_individual_distance(state) == pytest.approx(
            nearest_individual_distance(shuffled), abs=1e-12
        )


    @pytest.mark.parametrize("kind", ["box1", "box2", "integer", "duplicated", "single"])
    def test_equals_tensor_form(self, kind):
        rng = np.random.default_rng(["box1", "box2", "integer", "duplicated", "single"].index(kind))
        for _ in range(100):
            V = random_population(kind, rng)
            want = tensor_nearest_distance(V)
            got = nearest_individual_distance(V)
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("level", [0.0, 0.1, 1.0 / 3.0, 7.77, -2.5e6])
    @pytest.mark.parametrize("n", [1, 3, 10, 400])
    def test_exactly_zero_at_consensus(self, level, n):
        V = np.full((n, 6, 2), level)
        V[:, 2] = level / 3.0
        assert nearest_individual_distance(V) == 0.0
        assert trace_record(0, 0, V, None)[3] == 0.0

    def test_trace_record_matches_the_functionals(self):
        rng = np.random.default_rng(23)
        setting = grid_setting(7)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            state = PopulationState.from_values(setting, rng.uniform(-5, 5, size=(n, 7, 1)))
            row = trace_record(4, 1, state, None)
            assert row[2] == oracle_consensus_distance(state)
            assert row[3] == oracle_nearest_distance(state)

    @pytest.mark.parametrize("kind", ["box1", "box2", "integer", "duplicated", "single"])
    def test_views_equal_the_oracles(self, kind):
        rng = np.random.default_rng(["box1", "box2", "integer", "duplicated", "single"].index(kind) + 40)
        populations = [random_population(kind, rng) for _ in range(100)]
        # N = 400, E = 25: 10,000 entries, past the 8192 entries an einsum buffers
        populations.append(rng.uniform(-5, 5, size=(400, 25, 1)))
        for V in populations:
            assert consensus_distance(V) == oracle_consensus_distance(V)
            assert nearest_individual_distance(V) == oracle_nearest_distance(V)

    def test_trace_record_peak_memory_at_400_agents(self):
        setting = grid_setting(25)
        values = np.random.default_rng(5).uniform(0, 10, size=(400, 25, 1))
        state = PopulationState.from_values(setting, values)
        target = np.ones((25, 1))
        tracemalloc.start()
        try:
            trace_record(1, 0, state, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def per_population_rows(t, replicates, stack, re_target):
    """The per-population trace loop that the block trace replaced, kept
    as its oracle: each population of an (R, N, E, l) stack centred, its
    d_consensus a ``np.linalg.norm`` and its nearest individual's total
    one ``iel,iel->`` einsum."""
    centred = stack - stack.mean(axis=1, keepdims=True)
    rows = np.empty((len(stack), len(TRACE_COLUMNS)))
    rows[:, 0] = t
    rows[:, 1] = replicates
    for row, v, c in zip(rows, stack, centred):
        diffs = v - v[np.argmin(np.einsum("iel,iel->i", c, c))]
        row[2:4] = np.linalg.norm(c), np.sqrt(np.einsum("iel,iel->", diffs, diffs))
    rows[:, 4] = np.nan if re_target is None else relative_entropy(stack, re_target)
    return rows


class TestBlockTrace:
    @pytest.mark.parametrize("target", [None, "ones"])
    @pytest.mark.parametrize("n", [10, 400])
    def test_block_rows_equal_per_population_rows(self, n, target):
        # N = 400, E = 25: 10,000 entries per population, past the 8192
        # entries an einsum buffers
        rng = np.random.default_rng(n)
        steps, replicates = 4, 3
        block = rng.uniform(-5, 5, size=(steps, replicates, n, 25, 1))
        block[1, 2] = 0.75  # a population at consensus
        target = None if target is None else np.ones((25, 1))
        times = np.arange(steps)[:, None] + 7
        got = trace_record(times, range(replicates), block, target)
        want = [per_population_rows(t, range(replicates), values, target)
                for t, values in zip(times[:, 0], block)]
        assert got.shape == (steps, replicates, len(TRACE_COLUMNS))
        assert np.array_equal(got, np.array(want), equal_nan=True)
        assert got[1, 2, 2] == got[1, 2, 3] == 0.0


class TestEquilibriumShift:
    def test_identical_functions(self):
        k = KnowledgeFunction.constant(grid_setting(5), 2.0)
        assert knowledge_distance(k, k) == 0.0

    def test_student_to_source_shift(self):
        setting = grid_setting(5)
        student = KnowledgeFunction.constant(setting, 1.0)
        source = KnowledgeFunction.constant(setting, 5.0)
        assert knowledge_distance(student, source) == pytest.approx(
            math.sqrt(80), abs=1e-12
        )


class TestRelativeEntropy:
    def test_newborn_population_scores_minus_one(self):
        setting = grid_setting(25)
        state = PopulationState([KnowledgeFunction.zero(setting)] * 10)
        assert relative_entropy(state, np.ones((25, 1))) == -1.0

    def test_population_at_target_scores_zero(self):
        setting = grid_setting(7)
        state = PopulationState(
            [KnowledgeFunction.constant(setting, 1.0)] * 4
        )
        assert relative_entropy(state, np.ones((7, 1))) == 0.0

    def test_one_of_ten_at_target(self):
        setting = grid_setting(6)
        funcs = [KnowledgeFunction.constant(setting, 1.0)] + [
            KnowledgeFunction.zero(setting) for _ in range(9)
        ]
        state = PopulationState(funcs)
        assert relative_entropy(state, np.ones((6, 1))) == pytest.approx(-0.9, abs=1e-12)

    def test_never_positive(self):
        rng = np.random.default_rng(21)
        setting = grid_setting(4)
        for _ in range(100):
            state = PopulationState.from_values(
                setting, rng.uniform(-10, 10, size=(3, 4, 1))
            )
            assert relative_entropy(state, rng.uniform(-10, 10, size=(4, 1))) <= 0.0


class TestIdealizedContraction:
    def test_spread_seminorm_contracts_by_dobrushin(self):
        # the coefficient is exactly the contraction constant of the
        # max-spread seminorm; this holds for every stochastic matrix
        def spread(V):
            return float((V.max(axis=0) - V.min(axis=0)).max())

        rng = np.random.default_rng(22)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            lam = rng.uniform(0.0, 1.0, size=(n, n)) + 1e-9
            lam /= lam.sum(axis=1, keepdims=True)
            V = rng.uniform(-10, 10, size=(n, 4, 1))
            before = spread(V)
            after = spread(np.einsum("ij,jel->iel", lam, V))
            assert after <= dobrushin_coefficient(lam) * before + 1e-9

    def test_learning_matrix_action_contracts_consensus_distance(self):
        # exact matrix action of learning matrices built from positive
        # structure and floored credibility, measured in the projection metric
        rng = np.random.default_rng(0)
        setting_cache = {}
        for _ in range(100):
            n = int(rng.integers(2, 7))
            n_exp = int(rng.integers(1, 6))
            setting = setting_cache.setdefault(n_exp, grid_setting(n_exp))
            values = rng.uniform(-10, 10, size=(n, n_exp, 1))
            population = [KnowledgeFunction(setting, v) for v in values]
            gamma = rng.uniform(0.05, 1.0, size=(n, n))
            c_min = float(rng.uniform(0.01, 0.5))
            cred = compute_credibility(population, ConstantLikelihood(1.0), c_min)
            lam = compute_social_learning(gamma, cred)
            before = consensus_distance(values)
            after = consensus_distance(np.einsum("ij,jel->iel", lam, values))
            assert after <= (dobrushin_coefficient(lam) + 1e-9) * before


class TestMetricTrace:
    def build(self):
        grid = [
            [[t, r, 2.0 - t + r, 3.0 - t, -0.5 + 0.1 * t] for t in range(3)]
            for r in range(2)
        ]
        return MetricTrace(np.array(grid, dtype=float))

    def test_schema_enforced(self):
        with pytest.raises(ValueError):
            MetricTrace(np.zeros((4, 3)))

    def test_mean_rows_average_replicates(self):
        trace = self.build()
        means = trace.mean_rows()
        assert means.shape == (3, 4)
        assert means[0, 1] == pytest.approx(2.5)  # mean of 2.0 and 3.0
        assert list(trace.times) == [0, 1, 2]
        assert trace.n_replicates == 2

    @staticmethod
    def per_t_means(rows):
        """The per-t scan mean_rows replaced, kept as its reference."""
        ts = np.unique(rows[:, 0]).astype(int)
        out = np.empty((len(ts), 4))
        for k, t in enumerate(ts):
            sel = rows[rows[:, 0] == t]
            out[k, 0] = t
            out[k, 1:] = sel[:, 2:].mean(axis=0)
        return out

    @pytest.mark.parametrize("n_reps, with_target", [(13, False), (3, True)])
    def test_grid_mean_rows_equal_per_t_scan(self, n_reps, with_target):
        rng = np.random.default_rng(83 + n_reps)
        grid = np.array(
            [
                [
                    [t, r, *(rng.lognormal(size=2) * 10.0 ** rng.integers(-6, 7, 2)),
                     -rng.random() if with_target else np.nan]
                    for t in range(40)
                ]
                for r in range(n_reps)
            ]
        )
        trace = MetricTrace(grid)
        expected = self.per_t_means(trace.rows)
        assert np.array_equal(trace.mean_rows(), expected, equal_nan=True)

    def test_trace_refuses_anything_but_a_nonempty_grid(self):
        rows = self.build().rows
        for bad in (rows, rows[None, :, :4], rows[None, None], np.zeros((0, 3, 5)),
                    np.zeros((2, 0, 5))):
            with pytest.raises(ValueError, match="grid"):
                MetricTrace(bad)

    def test_replicate_rows_sorted_by_time(self):
        trace = self.build()
        rep = trace.replicate(1)
        assert list(rep[:, 0]) == [0, 1, 2]
        assert np.all(rep[:, 1] == 1)

    def test_csv_layout(self, tmp_path):
        trace = self.build()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 1 + 6
        mean_path = tmp_path / "mean.csv"
        trace.mean_to_csv(mean_path)
        assert mean_path.read_text().splitlines()[0] == "t,d_consensus,d_nearest,relative_entropy"

    def test_csv_bytes_equal_per_cell_reference(self, tmp_path):
        # the per-cell writer the row format replaced, as the reference
        def reference(path, header, rows, int_cols):
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    cells = [
                        str(int(x)) if k in int_cols else f"{x:.17g}"
                        for k, x in enumerate(row)
                    ]
                    fh.write(",".join(cells) + "\n")

        gen = np.random.default_rng(5)
        T = 25_000
        spread = 10.0 ** gen.integers(-300, 300, size=(T + 1, 3))
        rows = np.column_stack(
            [np.arange(T + 1.0), np.zeros(T + 1), gen.normal(size=(T + 1, 3)) * spread]
        )
        rows[1::7, 4] = math.nan
        rows[2::11, 2] = -0.0
        rows[3::13, 3] = math.inf
        rows[4::17, 3] = -math.inf
        rows[5, 1] = -0.0
        trace = MetricTrace(rows[None])
        trace.to_csv(tmp_path / "trace.csv")
        reference(tmp_path / "want.csv", TRACE_COLUMNS, rows, (0, 1))
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

        trace.mean_to_csv(tmp_path / "mean.csv")
        header = ("t", "d_consensus", "d_nearest", "relative_entropy")
        reference(tmp_path / "want.csv", header, trace.mean_rows(), (0,))
        assert (tmp_path / "mean.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_trace_record_without_target_is_nan(self):
        state = state_of(1.0, 2.0)
        row = trace_record(3, 1, state, None)
        assert row[0] == 3.0 and row[1] == 1.0
        assert math.isnan(row[4])
