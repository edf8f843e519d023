import json
import math

import numpy as np
import pytest

from epidyn import (
    BoxConcepts,
    ConstantLikelihood,
    DiscreteConcepts,
    GaussianPeakLikelihood,
    KnowledgeError,
    KnowledgeFunction,
    KnowledgeSetting,
    TabularLikelihood,
    function_from_dict,
    function_from_json,
    grid_setting,
    knowledge_distance,
    landscape_from_dict,
    usage_penalty,
)
from epidyn.knowledge import sorted_distinct

COLORS = ("none", "purple", "blue", "green", "yellow", "red")
BANDS = {"purple": (380, 430), "blue": (430, 520), "green": (520, 565),
         "yellow": (565, 610), "red": (610, 750)}


def color_function():
    """Visible-spectrum naming function on 10nm wavelength buckets."""
    wavelengths = np.arange(380.0, 1001.0, 10.0)
    concepts = DiscreteConcepts(
        [[float(i)] for i in range(len(COLORS))], labels=COLORS
    )
    setting = KnowledgeSetting(wavelengths[:, None], concepts)
    values = np.zeros((len(wavelengths), 1))
    for name, (lo, hi) in BANDS.items():
        idx = COLORS.index(name)
        values[(wavelengths >= lo) & (wavelengths < hi)] = float(idx)
    return setting, KnowledgeFunction(setting, values)


class TestEvaluate:
    def test_color_function_names_700nm_red(self):
        setting, f = color_function()
        e = int(np.flatnonzero(setting.experiences[:, 0] == 700.0)[0])
        idx = setting.concepts.index_of(f.evaluate(e)[None, :])[0]
        assert setting.concepts.labels[idx] == "red"

    def test_zero_function_everywhere_zero(self):
        setting = grid_setting(4)
        z = KnowledgeFunction.zero(setting)
        for e in range(4):
            assert np.all(z.evaluate(e) == 0.0)

    def test_table_lookup(self):
        setting = grid_setting(5)
        k = KnowledgeFunction(setting, [0.0, 0.0, 5.0, 0.0, 0.0])
        assert k.evaluate(2)[0] == 5.0

    def test_out_of_range_index(self):
        setting = grid_setting(3)
        k = KnowledgeFunction.zero(setting)
        with pytest.raises(IndexError):
            k.evaluate(3)
        with pytest.raises(IndexError):
            k.conceptualizes(-1)


class TestConceptualizes:
    def test_color_function_at_900nm(self):
        setting, f = color_function()
        e = int(np.flatnonzero(setting.experiences[:, 0] == 900.0)[0])
        assert not f.conceptualizes(e)

    def test_zero_function(self):
        z = KnowledgeFunction.zero(grid_setting(3))
        assert not any(z.conceptualizes(e) for e in range(3))

    def test_nonzero_box_value(self):
        k = KnowledgeFunction(grid_setting(3), [1.0, 0.0, 0.0])
        assert k.conceptualizes(0)
        assert not k.conceptualizes(1)


def penalty(k, mask=slice(None)):
    """The usage penalty of a function's table, restricted to ``mask``."""
    return usage_penalty(k.values[mask], k.setting.concepts)


class TestUsagePenalty:
    def test_two_concepts_counts_one(self, flat_round):
        _, population, _ = flat_round
        assert penalty(population[3]) == 1.0

    def test_single_concept_free(self, flat_round):
        _, population, _ = flat_round
        assert penalty(population[1]) == 0.0

    def test_zero_function_free(self):
        assert penalty(KnowledgeFunction.zero(grid_setting(4))) == 0.0

    def test_box_span_is_hull_length(self):
        k = KnowledgeFunction(grid_setting(4), [4.0, 6.0, 4.0, 0.0])
        assert penalty(k) == 2.0

    def test_box_single_value_free(self):
        k = KnowledgeFunction(grid_setting(4), [3.0, 3.0, 0.0, 3.0])
        assert penalty(k) == 0.0

    def test_mask_restricts_tally(self, flat_round):
        _, population, _ = flat_round
        mask = np.array([True, False, False, False, False])
        assert penalty(population[3], mask) == 0.0

    def test_planar_hull_area(self):
        setting = KnowledgeSetting(
            [[0.0], [1.0], [2.0]], BoxConcepts([-5.0, -5.0], [5.0, 5.0])
        )
        k = KnowledgeFunction(setting, [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        # nonzero distinct points (2,0) and (0,2) are degenerate in the plane
        assert penalty(k) == 0.0
        k2 = KnowledgeFunction(setting, [[2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        assert penalty(k2) == pytest.approx(2.0)

    def test_raw_table_helper(self):
        box = BoxConcepts([-10.0], [10.0])
        assert usage_penalty(np.array([[1.0], [5.0]]), box) == 4.0


class TestKnowledgeDistance:
    def test_constant_one_vs_five(self):
        setting = grid_setting(5)
        f = KnowledgeFunction.constant(setting, 1.0)
        g = KnowledgeFunction.constant(setting, 5.0)
        assert knowledge_distance(f, g) == pytest.approx(math.sqrt(80), abs=1e-12)

    def test_identity(self):
        f = KnowledgeFunction.constant(grid_setting(5), 3.3)
        assert knowledge_distance(f, f) == 0.0

    def test_constant_two_vs_six(self):
        setting = grid_setting(5)
        f = KnowledgeFunction.constant(setting, 2.0)
        g = KnowledgeFunction.constant(setting, 6.0)
        assert knowledge_distance(f, g) == pytest.approx(math.sqrt(80), abs=1e-12)

    def test_mismatched_settings(self):
        f = KnowledgeFunction.constant(grid_setting(4), 1.0)
        g = KnowledgeFunction.constant(grid_setting(5), 1.0)
        with pytest.raises(KnowledgeError):
            knowledge_distance(f, g)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(7)
        setting = grid_setting(6)
        for _ in range(200):
            f, g, h = (
                KnowledgeFunction(setting, rng.uniform(-10, 10, size=6))
                for _ in range(3)
            )
            dfg = knowledge_distance(f, g)
            assert dfg == knowledge_distance(g, f)
            assert dfg >= 0.0
            assert knowledge_distance(f, f) == 0.0
            assert dfg <= knowledge_distance(f, h) + knowledge_distance(h, g) + 1e-12


class TestSortedDistinct:
    def test_equals_np_unique(self):
        rng = np.random.default_rng(171)
        for _ in range(200):
            n, l = int(rng.integers(0, 12)), int(rng.integers(1, 4))
            a = rng.integers(-2, 3, (n, l)).astype(float)
            a[a == 0.0] *= rng.choice([1.0, -1.0], int((a == 0.0).sum()))  # -0.0
            assert np.array_equal(sorted_distinct(a), np.unique(a, axis=0))
            assert np.array_equal(sorted_distinct(a[:, 0]), np.unique(a[:, 0]))

    def test_duplicate_points_rejected(self):
        with pytest.raises(KnowledgeError, match="duplicate concept points"):
            DiscreteConcepts([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(KnowledgeError, match="duplicate experience points"):
            KnowledgeSetting([[1.0], [-0.0], [0.0]], DiscreteConcepts([[0.0]]))


class TestConstruction:
    def test_rejects_values_outside_box(self):
        with pytest.raises(KnowledgeError):
            KnowledgeFunction(grid_setting(3), [11.0, 0.0, 0.0])

    def test_rejects_unlisted_discrete_point(self):
        setting = KnowledgeSetting(
            [[0.0], [1.0]], DiscreteConcepts([[0.0], [1.0]])
        )
        with pytest.raises(KnowledgeError):
            KnowledgeFunction(setting, [[0.5], [0.0]])

    def test_rejects_wrong_length(self):
        with pytest.raises(KnowledgeError):
            KnowledgeFunction(grid_setting(3), [1.0, 2.0])

    def test_rejects_duplicate_experiences(self):
        with pytest.raises(KnowledgeError):
            KnowledgeSetting([[1.0], [1.0]], BoxConcepts([-1.0], [1.0]))

    def test_box_must_contain_origin(self):
        with pytest.raises(KnowledgeError):
            BoxConcepts([1.0], [2.0])

    def test_discrete_zero_first(self):
        with pytest.raises(KnowledgeError):
            DiscreteConcepts([[1.0], [0.0]])

    def test_values_are_frozen(self):
        k = KnowledgeFunction.constant(grid_setting(3), 1.0)
        with pytest.raises(ValueError):
            k.values[0] = 2.0


class TestLandscapes:
    @pytest.mark.parametrize(
        "landscape",
        [
            ConstantLikelihood(1.0),
            ConstantLikelihood(0.3),
            GaussianPeakLikelihood([6.0], 10.0),
            TabularLikelihood(np.full((4, 3), 0.8)),
        ],
        ids=["const1", "const.3", "gauss", "tabular"],
    )
    def test_zero_concept_is_half_exactly(self, landscape):
        if isinstance(landscape, TabularLikelihood):
            setting = KnowledgeSetting(
                np.arange(4.0)[:, None],
                DiscreteConcepts([[0.0], [1.0], [2.0]]),
            )
        else:
            setting = grid_setting(4)
        lik = landscape.per_population(setting, np.zeros((4, 1)))
        for e in range(4):
            assert lik[e] == 0.5
        zeros = np.zeros((3, 4, 1))
        assert np.all(landscape.per_population(setting, zeros) == 0.5)

    def test_gaussian_peak_value(self):
        setting = grid_setting(3)
        L = GaussianPeakLikelihood([6.0], 10.0)
        lik = L.per_population(setting, [[5.0], [6.0], [0.0]])
        assert lik[0] == pytest.approx(math.exp(-0.1))
        assert lik[1] == 1.0
        assert lik[2] == 0.5

    def test_values_stay_in_unit_interval(self):
        setting = grid_setting(3)
        rng = np.random.default_rng(3)
        L = GaussianPeakLikelihood([2.0], 5.0)
        lik = L.per_population(setting, rng.uniform(-10, 10, size=(50, 3, 1)))
        assert lik.shape == (50, 3)
        assert np.all((lik >= 0.0) & (lik <= 1.0))

    @pytest.mark.parametrize("variant", ["constant", "gauss", "tabular"])
    def test_population_stack_equals_each_table(self, variant):
        rng = np.random.default_rng(8)
        if variant == "tabular":
            concepts = DiscreteConcepts([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
            setting = KnowledgeSetting(np.arange(6.0)[:, None], concepts)
            landscape = TabularLikelihood(rng.uniform(0.0, 1.0, size=(6, 4)))
            values = concepts.points[rng.integers(0, 4, size=(7, 6))]
        else:
            setting = KnowledgeSetting(np.arange(6.0)[:, None], BoxConcepts([-5, -5], [5, 5]))
            landscape = (
                ConstantLikelihood(0.3)
                if variant == "constant"
                else GaussianPeakLikelihood([1.0, -2.0], 4.0)
            )
            values = rng.uniform(-5.0, 5.0, size=(7, 6, 2))
            values[rng.random((7, 6)) < 0.4] = 0.0
        values[2] = 0.0
        lik = landscape.per_population(setting, values)
        assert lik.shape == (7, 6)
        for row, table in zip(lik, values):
            assert np.array_equal(row, landscape.per_population(setting, table))
        zero = ~np.any(values != 0.0, axis=-1)
        assert zero.any() and np.all(lik[zero] == 0.5)
        assert np.all(lik[2] == 0.5)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_gaussian_width_positive_and_finite(self, width):
        with pytest.raises(KnowledgeError):
            GaussianPeakLikelihood([1.0], width)

    def test_gaussian_center_finite(self):
        with pytest.raises(KnowledgeError):
            GaussianPeakLikelihood([math.nan], 1.0)

    def test_tabular_rejects_nan(self):
        with pytest.raises(KnowledgeError):
            TabularLikelihood([[0.5, math.nan]])

    def test_check_setting(self):
        box = grid_setting(2)
        discrete = KnowledgeSetting([[0.0], [1.0]], DiscreteConcepts([[0.0], [1.0], [2.0]]))
        ConstantLikelihood(1.0).check_setting(box)
        ConstantLikelihood(1.0).check_setting(discrete)
        GaussianPeakLikelihood([1.0], 1.0).check_setting(box)
        TabularLikelihood(np.full((2, 3), 0.7)).check_setting(discrete)
        bad = [
            (GaussianPeakLikelihood([1.0, 2.0], 1.0), box),
            (TabularLikelihood(np.full((2, 3), 0.7)), box),
            (TabularLikelihood(np.full((2, 2), 0.7)), discrete),
            (TabularLikelihood(np.full((3, 3), 0.7)), discrete),
        ]
        for landscape, setting in bad:
            with pytest.raises(KnowledgeError):
                landscape.check_setting(setting)

    def test_constant_bounds_checked(self):
        with pytest.raises(KnowledgeError):
            ConstantLikelihood(1.2)

    def test_tabular_bounds_checked(self):
        with pytest.raises(KnowledgeError):
            TabularLikelihood([[0.5, 2.0]])

    def test_tabular_forces_zero_column(self):
        L = TabularLikelihood([[0.9, 0.7], [0.1, 0.2]])
        assert np.all(L.table[:, 0] == 0.5)

    def test_landscape_dict_round_trip(self):
        for L in (
            ConstantLikelihood(0.7),
            GaussianPeakLikelihood([1.0, 2.0], 3.0),
            TabularLikelihood([[0.5, 0.25], [0.5, 1.0]]),
        ):
            L2 = landscape_from_dict(L.to_dict())
            assert L.to_dict() == L2.to_dict()


class TestProject:
    def test_discrete_exact_tie_goes_to_lowest_index(self):
        concepts = DiscreteConcepts([[0.0], [2.0], [-2.0], [4.0]])
        # 1 is equidistant from 0 and 2, -1 from 0 and -2, 3 from 2 and 4
        out = concepts.project(np.array([[1.0], [-1.0], [3.0], [-3.0], [9.0]]))
        assert np.array_equal(out, [[0.0], [0.0], [2.0], [-2.0], [4.0]])

    def test_discrete_listed_points_are_fixed(self):
        concepts = DiscreteConcepts([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(concepts.project(concepts.points), concepts.points)
        stack = np.array([[[0.6, 0.5], [0.2, 0.1]], [[0.5, 0.6], [0.5, 0.5]]])
        out = concepts.project(stack)
        assert out.shape == stack.shape
        # (0.5, 0.5) ties all three points
        assert np.array_equal(out, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])

    def test_box_projection_is_clip(self):
        box = BoxConcepts([-1.0, 0.0], [2.0, 3.0])
        rng = np.random.default_rng(4)
        values = rng.uniform(-5.0, 5.0, size=(40, 2))
        out = box.project(values)
        assert np.array_equal(out, np.clip(values, box.lo, box.hi))
        assert box.contains(out).all()


class TestSerialization:
    def test_json_round_trip_box(self):
        setting = grid_setting(3)
        k = KnowledgeFunction(setting, [1.0 / 3.0, -2.718281828459045, 0.0])
        doc = json.loads(k.to_json())
        assert set(doc) == {"experiences", "concepts", "values"}
        k2 = function_from_json(k.to_json())
        assert np.array_equal(k.values, k2.values)
        assert np.array_equal(k.setting.experiences, k2.setting.experiences)

    def test_json_round_trip_discrete(self, flat_round):
        _, population, _ = flat_round
        k2 = function_from_dict(population[3].to_dict())
        assert np.array_equal(population[3].values, k2.values)
        assert k2.setting.concepts.labels == ("none", "flat", "round")

    def test_reals_keep_full_precision(self):
        # repr-based JSON floats round-trip doubles bit for bit
        setting = grid_setting(1)
        value = 0.1234567890123456789
        k = KnowledgeFunction(setting, [value])
        assert function_from_json(k.to_json()).values[0, 0] == k.values[0, 0]
