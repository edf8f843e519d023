import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidyn import (
    BoundInapplicableError,
    BoxConcepts,
    KnowledgeSetting,
    MatrixError,
    analyze,
    communicates,
    covering_number_log_bound,
    dobrushin_coefficient,
    entry_lower_bound,
    grid_setting,
    is_primitive,
    normalize_rows,
    required_sample_size,
    second_modulus,
)
from epidyn import spectral
from epidyn.experiments import build_manifest, initial_report, setup_from_dict
from epidyn.influence import validate_stochastic
from epidyn.sampling import support_table

from conftest import perfbench_workloads, random_stochastic

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def reachability_oracle(A):
    """Positivity of sum_{k=1..N} (boolean A)^k, with exact integers."""
    n = len(A)
    B = (np.asarray(A) > 0).astype(object)
    total = np.zeros((n, n), dtype=object)
    P = B.copy()
    for _ in range(n):
        total = total + P
        P = P @ B
    return total > 0


def primitivity_oracle(A):
    """First k <= (N-1)^2 + 1 with A^k > 0, each power from scratch with
    exact integer arithmetic."""
    n = len(A)
    B = (np.asarray(A) > 0).astype(object)
    for k in range(1, (n - 1) ** 2 + 2):
        P = np.eye(n, dtype=object)
        for _ in range(k):
            P = P @ B
        if np.all(P > 0):
            return True, k
    return False, None


def linear_scan_is_primitive(A):
    """The exponent search ``is_primitive`` replaced: one boolean int64 power
    at a time up to the Wielandt bound."""
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    base = (M > 0.0).astype(np.int64)
    power = base.copy()
    for k in range(1, (n - 1) ** 2 + 2):
        if power.all():
            return True, k
        power = ((power @ base) > 0).astype(np.int64)
    return False, None


def float32_squaring_is_primitive(A):
    """The dense primitivity test the table search replaced: the 0/1
    pattern squared in float32 until a power 2^s is positive, then the
    exact exponent by binary lifting over the stored squares.  Path counts
    are at most N < 2^24, exact in float32."""
    M = np.asarray(A, dtype=float)
    if np.any(M < 0.0):
        raise MatrixError("primitivity is defined for nonnegative matrices")
    bound = (M.shape[0] - 1) ** 2 + 1
    squares = [(M > 0.0).astype(np.float32)]  # squares[s] is the pattern of A^(2^s)
    while not squares[-1].all():
        if 2 ** (len(squares) - 1) >= bound:
            return False, None
        P = squares[-1]
        squares.append((P @ P > 0.0).astype(np.float32))
    if len(squares) == 1:
        return True, 1
    k, power = 0, None
    for s in range(len(squares) - 2, -1, -1):
        candidate = squares[s] if power is None else (power @ squares[s] > 0.0)
        if not candidate.all():
            k, power = k + 2**s, candidate.astype(np.float32)
    return True, k + 1


def overlap_scan_dobrushin(A):
    """The dense Dobrushin coefficient the table search replaced: exactly 1
    when the float32 overlap product S S^T of the support S = (A > 0) has a
    zero, otherwise row i against rows i.. in one reused N x N buffer."""
    M = validate_stochastic(A)
    S = (M > 0.0).astype(np.float32)
    if not (S @ S.T).all():
        return 1.0
    diff = np.empty_like(M)
    widest = [
        np.abs(np.subtract(M[i:], M[i], out=diff[i:]), out=diff[i:]).sum(axis=-1).max()
        for i in range(len(M))
    ]
    return float(max(widest) / 2.0)


def dense_communicates(A, i, j):
    """The dense reachability loop the table search replaced."""
    adj = np.asarray(A, dtype=float) > 0.0
    frontier = adj[i].copy()
    reached = frontier.copy()
    while frontier.any():
        if reached[j]:
            return True
        frontier = adj[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached[j])


def dense_second_modulus(M):
    """The second eigenvalue modulus from dense eigvals."""
    M = np.asarray(M, dtype=float)
    if len(M) == 1:
        return 0.0
    return float(np.sort(np.abs(np.linalg.eigvals(M)))[::-1][1])


def structure_pattern(kind, n, rng):
    """A 0/1 structure of N agents: sparse random, periodic (edges only from
    one class to the next), reducible (a zero off-diagonal block),
    self-loop-free, or one long cycle plus a chord."""
    if kind == "random":
        return (rng.random((n, n)) < rng.uniform(1.0 / n, 1.0)).astype(float)
    if kind == "periodic":
        cls = rng.integers(0, int(rng.integers(2, 4)), n)
        nxt = (cls[:, None] + 1) % (cls.max() + 1) == cls[None, :]
        return (nxt & (rng.random((n, n)) < 0.7)).astype(float)
    if kind == "reducible":
        G = (rng.random((n, n)) < 0.5).astype(float)
        G[int(rng.integers(1, n)) if n > 1 else 0 :, : int(rng.integers(0, n))] = 0.0
        return G
    if kind == "no-self":
        G = (rng.random((n, n)) < rng.uniform(1.0 / n, 1.0)).astype(float)
        np.fill_diagonal(G, 0.0)
        return G
    order = rng.permutation(n)
    G = np.zeros((n, n))
    G[order, np.roll(order, -1)] = 1.0
    G[int(rng.integers(n)), int(rng.integers(n))] = 1.0
    return G


def learning_on_table(kind, n, seed):
    """Learning entries on the support table of a random structure, and the
    dense matrix they lay out.  Some entries inside the structure's support
    underflowed to 0, some rows are dead (all 0 on the table, uniform in the
    dense matrix), and some rows carry a rounding negative down to -1e-9
    where an entry underflowed, made up on the row's largest entry."""
    rng = np.random.default_rng(seed)
    G = structure_pattern(kind, n, rng)
    table = support_table(G)
    on_support = table.entries(G) > 0.0
    entries = np.where(on_support, rng.uniform(0.01, 1.0, on_support.shape), 0.0)
    entries[on_support & (rng.random(on_support.shape) < 0.15)] = 0.0  # underflow
    entries[rng.random(n) < 0.1] = 0.0  # dead rows
    live = entries.sum(axis=1) > 0.0
    entries[live] /= entries[live].sum(axis=1, keepdims=True)
    holes = on_support & (entries == 0.0) & live[:, None]
    for i in np.flatnonzero(holes.any(axis=1) & (rng.random(n) < 0.5)):
        rounding = float(rng.uniform(0.0, 1e-9))
        entries[i, rng.choice(np.flatnonzero(holes[i]))] = -rounding
        entries[i, entries[i].argmax()] += rounding
    M = np.zeros((n, n))
    M[np.arange(n)[:, None], table.agents] = entries  # padding writes 0 off the support
    M[~live] = 1.0 / n
    return entries, table, M


PATTERN_KINDS = ("random", "periodic", "reducible", "no-self", "cycle")


def full_tensor_dobrushin(A):
    """Half the largest row-pair L1 distance over the full N x N x N tensor."""
    M = np.asarray(A, dtype=float)
    diff = np.abs(M[:, None, :] - M[None, :, :]).sum(axis=-1)
    return float(diff.max() / 2.0)


def disjoint_rows_oracle(A):
    """Whether two rows share no positive column, by set intersection."""
    supports = [set(np.flatnonzero(np.asarray(row) > 0.0)) for row in A]
    return any(not (a & b) for a, b in itertools.combinations(supports, 2))


def wielandt_matrix(n):
    """n-cycle plus one chord: the primitive pattern with the largest
    exponent, (n-1)^2 + 1."""
    W = np.zeros((n, n))
    W[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    W[n - 1, 1] = 1.0
    return W


def ring_lattice_learning(rng, n, reach):
    """Row-stochastic matrix on a ring: self plus ``reach`` neighbours on
    each side, random positive weights."""
    L = np.zeros((n, n))
    for d in range(-reach, reach + 1):
        L[np.arange(n), (np.arange(n) + d) % n] = rng.uniform(0.1, 1.0, n)
    return L / L.sum(axis=1, keepdims=True)


def pattern_zoo(rng):
    """0/1 patterns up to N = 40: sparse random, reducible (a zero
    off-diagonal block), periodic (edges only between consecutive classes)
    and long-exponent cycles with one extra edge."""
    for n in (1, 2, 5, 9, 16, 23, 31, 40):
        for degree in (2.5, 6.0):
            yield (rng.random((n, n)) < min(1.0, degree / n)).astype(float)
        if n > 1:
            A = (rng.random((n, n)) < 0.5).astype(float)
            cut = int(rng.integers(1, n))
            A[cut:, :cut] = 0.0
            yield A
        for period in (2, 3):
            if n >= period:
                cls = rng.integers(0, period, n)
                nxt = (cls[:, None] + 1) % period == cls[None, :]
                yield (nxt & (rng.random((n, n)) < 0.6)).astype(float)
        order = rng.permutation(n)
        C = np.zeros((n, n))
        C[order, np.roll(order, -1)] = 1.0
        C[int(rng.integers(n)), int(rng.integers(n))] = 1.0
        yield C


class TestCommunicates:
    def test_banded_matrix_connects_ends(self, banded_primitive):
        assert communicates(banded_primitive, 0, 3)
        assert all(
            communicates(banded_primitive, i, j)
            for i in range(4)
            for j in range(4)
        )

    def test_two_cycle(self):
        assert communicates(SWAP, 0, 1)
        assert communicates(SWAP, 1, 0)

    def test_zero_matrix(self):
        Z = np.zeros((3, 3))
        assert not any(communicates(Z, i, j) for i in range(3) for j in range(3))

    def test_self_communication_needs_a_cycle(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not communicates(A, 0, 0)
        assert communicates(SWAP, 0, 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            communicates(SWAP, 0, 2)

    def test_agrees_with_power_sum_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            A = (rng.random((n, n)) < 0.35).astype(float)
            expected = reachability_oracle(A)
            for i in range(n):
                for j in range(n):
                    assert communicates(A, i, j) == bool(expected[i, j])


class TestIsPrimitive:
    def test_banded_matrix_exponent_three(self, banded_primitive):
        assert is_primitive(banded_primitive) == (True, 3)

    def test_swap_is_not_primitive(self):
        assert is_primitive(SWAP) == (False, None)

    def test_scalar_one(self):
        assert is_primitive([[1.0]]) == (True, 1)

    def test_negative_entries_rejected(self):
        with pytest.raises(MatrixError):
            is_primitive(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_exhaustive_up_to_three(self):
        for n in (1, 2, 3):
            for bits in itertools.product((0.0, 1.0), repeat=n * n):
                A = np.array(bits).reshape(n, n)
                assert is_primitive(A) == primitivity_oracle(A)

    def test_random_instances_up_to_six(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            A = (rng.random((n, n)) < rng.uniform(0.2, 0.8)).astype(float)
            assert is_primitive(A) == primitivity_oracle(A)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_wielandt_matrix_attains_the_bound(self, n):
        assert is_primitive(wielandt_matrix(n)) == (True, (n - 1) ** 2 + 1)

    @pytest.mark.parametrize(
        "n, reach", [(3, 1), (10, 1), (11, 2), (25, 4), (400, 8), (1000, 7), (1000, 60)]
    )
    def test_ring_lattice_exponent(self, n, reach):
        # self plus ``reach`` neighbours each side: every agent is reached in
        # ceil((n // 2) / reach) steps; at N = 1000 the float32 path counts
        # reach several hundred
        A = ring_lattice_learning(np.random.default_rng(n + reach), n, reach)
        assert is_primitive(A) == (True, max(1, math.ceil((n // 2) / reach)))

    def test_matches_linear_scan_up_to_forty(self):
        rng = np.random.default_rng(29)
        seen = set()
        for A in pattern_zoo(rng):
            expected = linear_scan_is_primitive(A)
            assert is_primitive(A) == expected
            seen.add(expected[0])
        assert seen == {True, False}


class TestEntryLowerBound:
    def test_plug_in_value(self):
        gamma = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert entry_lower_bound(gamma, 0.1) == pytest.approx(0.00625, abs=1e-15)

    def test_uniform_min_entry_inapplicable(self):
        with pytest.raises(BoundInapplicableError):
            entry_lower_bound(np.full((2, 2), 0.5), 0.1)

    def test_zero_floor_inapplicable(self):
        with pytest.raises(BoundInapplicableError):
            entry_lower_bound(np.array([[0.9, 0.1], [0.1, 0.9]]), 0.0)

    def test_requires_strict_positivity(self):
        with pytest.raises(BoundInapplicableError):
            entry_lower_bound(np.array([[1.0, 0.0], [1.0, 1.0]]), 0.1)

    def test_row_scaling_does_not_change_bound(self):
        gamma = np.array([[0.9, 0.1], [0.1, 0.9]])
        scaled = gamma * np.array([[7.0], [0.3]])
        assert entry_lower_bound(scaled, 0.2) == pytest.approx(
            entry_lower_bound(gamma, 0.2), rel=1e-14
        )


class TestDobrushin:
    def test_uniform_rows_contract_fully(self):
        assert dobrushin_coefficient(np.full((4, 4), 0.25)) == 0.0

    def test_identity_does_not_contract(self):
        assert dobrushin_coefficient(np.eye(2)) == 1.0

    def test_bounded_by_min_entry_slack(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            A = random_stochastic(rng, n)
            assert dobrushin_coefficient(A) <= 1.0 - n * A.min() + 1e-12

    def test_range(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            A = random_stochastic(rng, int(rng.integers(1, 6)))
            assert 0.0 <= dobrushin_coefficient(A) <= 1.0

    def test_rejects_non_stochastic(self):
        with pytest.raises(MatrixError):
            dobrushin_coefficient(np.array([[0.5, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize("n", [1, 7, 9, 17, 50])
    def test_bit_equal_to_full_tensor(self, n):
        # Rows that all overlap are compared pair by pair, equal to the
        # tensor to the bit.  Two disjoint rows make the coefficient exactly
        # 1, which the tensor's sums reach only up to rounding.
        rng = np.random.default_rng(37 + n)
        dense = random_stochastic(rng, n)
        sparse = ring_lattice_learning(rng, n, reach=min(2, n // 2))
        for A in (dense, sparse):
            oracle = full_tensor_dobrushin(A)
            if disjoint_rows_oracle(A):
                assert dobrushin_coefficient(A) == 1.0
                assert abs(oracle - 1.0) <= 4 * np.spacing(1.0)
            else:
                assert dobrushin_coefficient(A) == oracle

    def test_exactly_one_iff_two_rows_are_disjoint(self):
        rng = np.random.default_rng(38)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(2, 30))
            S = rng.random((n, n)) < rng.uniform(0.02, 0.6)
            S[np.arange(n), rng.integers(0, n, n)] = True  # no zero row
            A = np.where(S, rng.uniform(0.1, 1.0, (n, n)), 0.0)
            A /= A.sum(axis=1, keepdims=True)
            disjoint = disjoint_rows_oracle(A)
            seen.add(disjoint)
            assert (dobrushin_coefficient(A) == 1.0) == disjoint
            if not disjoint:
                assert dobrushin_coefficient(A) == full_tensor_dobrushin(A)
        assert seen == {False, True}


class TestSecondModulus:
    def test_rank_one_uniform(self):
        assert second_modulus(np.full((2, 2), 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_swap_has_unit_second_eigenvalue(self):
        assert second_modulus(SWAP) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_two_state_chain(self):
        assert second_modulus([[0.9, 0.1], [0.1, 0.9]]) == pytest.approx(0.8, abs=1e-12)

    def test_bounded_by_dobrushin(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            A = random_stochastic(rng, int(rng.integers(2, 7)))
            assert second_modulus(A) <= dobrushin_coefficient(A) + 1e-9

    def test_complex_spectrum_regression(self):
        # weakly irreducible stochastic matrix with a complex eigenvalue pair,
        # the known obstruction to a naive contraction-norm argument
        A = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.75, 0.0, 0.25],
                [1.0 / 8.0, 7.0 / 8.0, 0.0],
            ]
        )
        eig = np.linalg.eigvals(A)
        assert np.abs(eig.imag).max() > 1e-6


class TestSimpleUnitEigenvalue:
    def test_pairwise_communication_forces_multiplicity_one(self):
        # random stochastic matrices arranged so every pair communicates in
        # at least one direction
        rng = np.random.default_rng(53)
        found = 0
        while found < 100:
            n = int(rng.integers(2, 6))
            mask = np.tril(np.ones((n, n), dtype=bool))  # lower chain always on
            extra = rng.random((n, n)) < 0.3
            mask |= extra
            A = np.where(mask, rng.random((n, n)) + 0.05, 0.0)
            A = A / A.sum(axis=1, keepdims=True)
            ok = all(
                communicates(A, i, j) or communicates(A, j, i)
                for i in range(n)
                for j in range(n)
            )
            if not ok:
                continue
            rank = np.linalg.matrix_rank(A - np.eye(n), tol=1e-10)
            assert rank == n - 1
            found += 1


def greedy_interval_cover(lo, hi, radius):
    """Minimal number of radius-balls covering [lo, hi] on a grid walk."""
    count, x = 0, lo
    while x < hi or count == 0:
        count += 1
        x = x + 2 * radius
    return count


class TestCoveringBound:
    def test_box_grid_value(self):
        assert covering_number_log_bound(grid_setting(5), 1.0) == pytest.approx(
            5 * math.log(10), abs=1e-12
        )

    def test_single_ball_suffices(self):
        assert covering_number_log_bound(grid_setting(5), 10.0) == 0.0
        assert covering_number_log_bound(grid_setting(5), 50.0) == 0.0

    def test_doubling_experiences_doubles_bound(self):
        b5 = covering_number_log_bound(grid_setting(5), 0.7)
        b10 = covering_number_log_bound(grid_setting(10), 0.7)
        assert b10 == pytest.approx(2 * b5, abs=1e-12)

    def test_matches_greedy_cover_per_cell(self):
        for eps in (0.3, 0.5, 1.0, 2.5, 7.0):
            setting = grid_setting(1)
            per_cell = greedy_interval_cover(-10.0, 10.0, eps)
            assert covering_number_log_bound(setting, eps) == pytest.approx(
                math.log(per_cell), abs=1e-12
            )

    def test_monotone_nonincreasing_in_eps(self):
        setting = grid_setting(3)
        values = [covering_number_log_bound(setting, e) for e in np.linspace(0.05, 12, 60)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            covering_number_log_bound(grid_setting(3), 0.0)
        discrete_setting = KnowledgeSetting(
            [[0.0]], __import__("epidyn").DiscreteConcepts([[0.0], [1.0]])
        )
        with pytest.raises(MatrixError):
            covering_number_log_bound(discrete_setting, 1.0)

    def test_vector_box_sums_components(self):
        setting = KnowledgeSetting(
            [[0.0], [1.0]], BoxConcepts([-10.0, -2.0], [10.0, 2.0])
        )
        got = covering_number_log_bound(setting, 1.0)
        assert got == pytest.approx(2 * (math.log(10) + math.log(2)), abs=1e-12)


class TestRequiredSampleSize:
    def frozen_oracle(self, t, n, M, a, delta, d0, setting):
        eta = a ** (2 * t) * d0**2 / n
        eps = eta / (24 * M)
        lo, hi = setting.concepts.lo[0], setting.concepts.hi[0]
        cover = setting.n_experiences * math.log(max(1, math.ceil((hi - lo) / (2 * eps))))
        return math.ceil(288 * M**2 / eta * (cover + math.log(max(t, 1) * n) + math.log(1 / delta)))

    def test_plug_in_oracle(self):
        setting = grid_setting(5)
        args = (1, 2, 20.0, 0.9, 0.1, 8.944)
        assert required_sample_size(*args, setting) == self.frozen_oracle(*args, setting) == 99617

    def test_time_zero_is_finite(self):
        m0 = required_sample_size(0, 2, 20.0, 0.9, 0.1, 8.944, grid_setting(5))
        assert m0 > 0

    def test_monotone_in_time(self):
        setting = grid_setting(5)
        sizes = [
            required_sample_size(t, 2, 20.0, 0.9, 0.1, 8.944, setting)
            for t in range(0, 12)
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[1] < sizes[-1]

    def test_monotone_in_confidence(self):
        setting = grid_setting(5)
        sizes = [
            required_sample_size(3, 2, 20.0, 0.9, d, 8.944, setting)
            for d in (0.5, 0.2, 0.1, 0.01)
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha_star=1.0),
            dict(alpha_star=0.0),
            dict(delta=0.0),
            dict(delta=1.0),
            dict(d0=0.0),
            dict(M=0.0),
            dict(t=-1),
        ],
    )
    def test_rejects_out_of_range_parameters(self, kwargs):
        base = dict(t=1, n_agents=2, M=20.0, alpha_star=0.9, delta=0.1, d0=8.944)
        base.update(kwargs)
        with pytest.raises(ValueError):
            required_sample_size(setting=grid_setting(5), **base)


class TestReport:
    def test_report_invariants_on_random_learning_matrices(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A = random_stochastic(rng, n)
            report = analyze(A)
            assert 0.0 <= report.dobrushin <= 1.0
            assert report.min_entry == A.min()
            if report.is_primitive:
                assert report.primitivity_exponent <= (n - 1) ** 2 + 1
                if n > 1:
                    assert report.second_modulus < 1.0

    def test_report_peak_memory_at_400_agents(self):
        # The full pairwise tensor at N = 400 alone would take 1 GB.
        lam = ring_lattice_learning(np.random.default_rng(67), 400, reach=8)
        tracemalloc.start()
        try:
            report = analyze(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.is_primitive
        assert peak < 64 * 2**20

    def test_crowd_manifest_reports_exact_unit_dobrushin(self):
        # the benchmark's crowd workload: N = 400 on a ring lattice, so rows
        # more than 2 * 8 agents apart share no support
        setup = setup_from_dict(perfbench_workloads().generate("crowd", 5))
        report = build_manifest(setup)["spectral"]
        assert report["dobrushin"] == 1.0
        assert report["is_primitive"] is True
        assert report["primitivity_exponent"] == 25

    def test_report_accepts_rounding_negatives_that_validation_admits(self):
        # validate_stochastic admits entries down to -1e-9; primitivity
        # reads them as zero edges instead of rejecting the matrix
        A = [[1 + 5e-10, -5e-10], [0.5, 0.5]]
        report = analyze(A)
        assert report.is_primitive is False
        assert report.primitivity_exponent is None
        assert report.min_entry == -5e-10

    def test_report_serializes(self, banded_primitive):
        from epidyn import normalize_rows

        doc = analyze(normalize_rows(banded_primitive)).to_dict()
        assert doc["is_primitive"] is True
        assert doc["primitivity_exponent"] == 3
        assert set(doc) == {
            "is_primitive",
            "primitivity_exponent",
            "second_modulus",
            "dobrushin",
            "min_entry",
        }


def ring_structure(n, offsets):
    G = np.zeros((n, n))
    for d in offsets:
        G[np.arange(n), (np.arange(n) + d) % n] = 1.0
    return G


def dense_initial_report(setup):
    """The manifest's spectral block as it was built densely: credibility
    on the complete table, the (N, N) learning matrix, the dense oracles."""
    from epidyn.influence import compute_social_learning, credibility_from_values
    from epidyn.sampling import SupportTable

    initial = setup.initial
    cred = credibility_from_values(
        initial.setting, initial.values, setup.landscape, setup.config.c_min,
        SupportTable.complete(initial.n_agents),
    )
    M = compute_social_learning(setup.structure, cred)
    prim, k = float32_squaring_is_primitive(np.maximum(M, 0.0))
    return {
        "is_primitive": prim,
        "primitivity_exponent": k,
        "second_modulus": dense_second_modulus(M),
        "dobrushin": overlap_scan_dobrushin(M),
        "min_entry": float(M.min()),
    }


class TestTableReport:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.sampled_from(PATTERN_KINDS), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_equals_the_dense_oracles(self, kind, n, seed):
        entries, table, M = learning_on_table(kind, n, seed)
        report = analyze(entries, table)
        prim, k = float32_squaring_is_primitive(np.maximum(M, 0.0))
        assert (report.is_primitive, report.primitivity_exponent) == (prim, k)
        assert report.dobrushin == overlap_scan_dobrushin(M)
        assert report.min_entry == M.min()
        assert report.second_modulus == dense_second_modulus(M)
        assert report.skipped == {}
        assert analyze(M) == report

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.sampled_from(PATTERN_KINDS), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_dense_views_equal_the_oracles(self, kind, n, seed):
        # a zero row of a dense matrix has no edge; only a table reads a
        # row without a positive entry as the uniform row
        rng = np.random.default_rng(seed)
        P = structure_pattern(kind, n, rng) * rng.uniform(0.5, 2.0, (n, n))
        assert is_primitive(P) == float32_squaring_is_primitive(P)
        for i, j in rng.integers(0, n, (6, 2)):
            assert communicates(P, i, j) == dense_communicates(P, i, j)

    def test_pattern_zoo_takes_every_branch(self):
        seen = set()
        for kind in PATTERN_KINDS:
            for seed in range(12):
                entries, table, M = learning_on_table(kind, 3 + 3 * seed, seed)
                report = analyze(entries, table)
                dead = not (entries > 0.0).any(axis=1).all()
                seen.add((report.is_primitive, report.dobrushin == 1.0, dead, table.full))
        assert {prim for prim, _, _, _ in seen} == {True, False}
        assert {one for _, one, _, _ in seen} == {True, False}
        assert {dead for _, _, dead, _ in seen} == {True, False}
        assert {full for _, _, _, full in seen} == {True, False}

    @pytest.mark.parametrize("block_bytes", [1, 200])
    def test_row_blocks_change_nothing(self, monkeypatch, block_bytes):
        # the frontier and the disjoint-pair search gather rows in blocks;
        # one row or a few rows per block give the report of one block
        cases = [learning_on_table(kind, 3 + 3 * seed, seed) for kind in PATTERN_KINDS for seed in range(12)]
        want = [analyze(entries, table) for entries, table, _ in cases]
        monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes)
        for (entries, table, M), report in zip(cases, want):
            assert analyze(entries, table) == report
            assert report.primitivity_exponent == float32_squaring_is_primitive(np.maximum(M, 0.0))[1]
            assert report.dobrushin == overlap_scan_dobrushin(M)

    def test_exponent_past_the_budget_is_the_wielandt_bound(self, monkeypatch, banded_primitive):
        lam = normalize_rows(banded_primitive)
        assert is_primitive(lam) == (True, 3)
        monkeypatch.setattr(spectral, "FRONTIER_WORDS", 4)
        assert is_primitive(lam) == (True, None)
        doc = analyze(lam).to_dict()
        assert doc["primitivity_exponent"] == 10
        assert set(doc["skipped"]) == {"primitivity_exponent"}
        assert doc["second_modulus"] == second_modulus(lam)

    def test_modulus_past_the_cap_is_omitted(self, monkeypatch, banded_primitive):
        lam = normalize_rows(banded_primitive)
        monkeypatch.setattr(spectral, "DENSE_CAP", 3)
        report = analyze(lam)
        assert report.second_modulus is None
        doc = report.to_dict()
        assert "second_modulus" not in doc and set(doc["skipped"]) == {"second_modulus"}
        assert doc["primitivity_exponent"] == 3

    def test_dobrushin_past_the_cap_is_its_upper_bound(self, monkeypatch):
        rng = np.random.default_rng(43)
        complete = random_stochastic(rng, 12)  # every two rows meet
        ring = ring_lattice_learning(rng, 12, 2)  # rows 0 and 6 are disjoint
        table = support_table(ring)
        want = overlap_scan_dobrushin(complete)
        assert want < 1.0 and overlap_scan_dobrushin(ring) == 1.0
        for cap in (12, 13):  # at or below the cap, the exact coefficient
            monkeypatch.setattr(spectral, "DENSE_CAP", cap)
            assert analyze(complete).dobrushin == want and not analyze(complete).skipped
            assert analyze(ring).dobrushin == analyze(table.entries(ring), table).dobrushin == 1.0
        monkeypatch.setattr(spectral, "DENSE_CAP", 11)
        report = analyze(complete)
        assert report.dobrushin == 1.0 and set(report.skipped) == {"second_modulus", "dobrushin"}
        assert dobrushin_coefficient(complete) == want  # the public coefficient stays exact
        for report in (analyze(ring), analyze(table.entries(ring), table)):
            assert report.dobrushin == 1.0 and set(report.skipped) == {"second_modulus"}

    @pytest.mark.parametrize("cap", [11, 12])
    @pytest.mark.parametrize("kind", ["complete", "ring"])
    def test_report_builds_each_edge_direction_once(self, monkeypatch, cap, kind):
        # is_primitive and the disjoint-row search share one _graph pass
        # each way, within the cap and past it
        rng = np.random.default_rng(44)
        M = random_stochastic(rng, 12) if kind == "complete" else ring_lattice_learning(rng, 12, 2)
        want = analyze(M)
        calls = []
        build = spectral._graph
        monkeypatch.setattr(spectral, "_graph", lambda *a: calls.append(a[2:]) or build(*a))
        monkeypatch.setattr(spectral, "DENSE_CAP", cap)
        report = analyze(M)
        assert sorted(calls) == [(), (True,)]
        if cap == 12:
            assert report == want
        calls.clear()
        assert is_primitive(M) == (want.is_primitive, want.primitivity_exponent)
        assert dobrushin_coefficient(M) == want.dobrushin
        assert sorted(calls) == [(), (), (True,), (True,)]

    @pytest.mark.parametrize(
        "offsets", [range(-8, 9), (-7, -5, -3, -1, 1, 3, 5, 7), "split"],
        ids=["ring", "bipartite", "split"],
    )
    def test_crowd_initial_report_equals_the_dense_build(self, offsets):
        setup = setup_from_dict(perfbench_workloads().generate("crowd", 5))
        n = setup.initial.n_agents
        if offsets == "split":  # two disjoint rings of N / 2
            half = ring_structure(n // 2, range(-8, 9))
            G = np.kron(np.eye(2), half)
        else:
            G = ring_structure(n, offsets)
        setup = replace(setup, structure=G)
        want = dense_initial_report(setup)
        assert initial_report(setup).to_dict() == want
        assert want["is_primitive"] is (offsets != "split" and 0 in offsets)

    def test_ring_of_2000_states_its_skips_without_an_n_by_n_array(self):
        from epidyn import PopulationState

        n = 2000
        setup = setup_from_dict(perfbench_workloads().generate("crowd", 5))
        values = np.random.default_rng(2000).uniform(-10.0, 10.0, (n,) + setup.initial.values.shape[1:])
        setup = replace(
            setup,
            structure=ring_structure(n, range(-8, 9)),
            initial=PopulationState.from_values(setup.initial.setting, values),
        )
        tracemalloc.start()
        try:
            report = initial_report(setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        doc = report.to_dict()
        assert doc["is_primitive"] is True and doc["dobrushin"] == 1.0 and doc["min_entry"] == 0.0
        assert doc["primitivity_exponent"] == (n - 1) ** 2 + 1
        assert "second_modulus" not in doc
        assert set(doc["skipped"]) == {"primitivity_exponent", "second_modulus"}
        # one (N, N) float64 array alone takes 8 N^2 bytes, 30.5 MiB here
        assert peak < 8 * n * n / 2
