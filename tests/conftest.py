import importlib.util
from pathlib import Path

import numpy as np
import pytest

from epidyn import (
    DiscreteConcepts,
    KnowledgeFunction,
    KnowledgeSetting,
    TabularLikelihood,
)
from epidyn.influence import ZERO_ROW_GUARD, _key_rows

ROOT = Path(__file__).resolve().parents[1]


def perfbench_workloads():
    """The benchmark's workload generator, perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def flat_round():
    """The four-agent flat/round-earth worked example.

    Experiences f1, f2, f3 suggest a flat earth as much as a round one;
    r1, r2 only a round one.  Agent 1 knows flat-at-f1; agents 2 and 3 map
    both f1 and r1 to flat resp. round; agent 4 mixes both concepts.
    """
    setting = KnowledgeSetting(
        np.arange(5.0)[:, None],
        DiscreteConcepts([[0.0], [1.0], [2.0]], labels=("none", "flat", "round")),
    )
    flat, round_, none = [1.0], [2.0], [0.0]
    population = [
        KnowledgeFunction(setting, [flat, none, none, none, none]),
        KnowledgeFunction(setting, [flat, none, none, flat, none]),
        KnowledgeFunction(setting, [round_, none, none, round_, none]),
        KnowledgeFunction(setting, [flat, none, none, round_, none]),
    ]
    # flat explains the f experiences but not the r ones; round explains all
    table = np.array(
        [
            [0.5, 1.0, 1.0],
            [0.5, 1.0, 1.0],
            [0.5, 1.0, 1.0],
            [0.5, 0.0, 1.0],
            [0.5, 0.0, 1.0],
        ]
    )
    landscape = TabularLikelihood(table)
    return setting, population, landscape


# Printed 4x4 credibility matrix of the worked example; the formula gives
# 1/2 at entry (1, 3) (0-indexed) where the print shows 1.
FLAT_ROUND_PRINTED = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [0.5, 0.0, 1.0, 1.0],
        [0.5, 0.0, 1.0, 0.5],
        [0.5, 0.0, 1.0, 1.0],
    ]
)


@pytest.fixture
def banded_primitive():
    """4x4 banded 0/1 matrix whose cube is the first strictly positive power."""
    return np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
        ]
    )


def random_stochastic(rng, n):
    M = rng.uniform(0.0, 1.0, size=(n, n)) + 1e-12
    return M / M.sum(axis=1, keepdims=True)


def pairwise_penalty(setting, values, support):
    """The penalty matrices of an (..., N, E, l) stack, (..., N, N) with a
    zero diagonal: each agent's penalty row of ``_key_rows`` copied out.
    The dense form that credibility's table replaced, kept as the penalty
    oracle."""
    _, rows, owner = _key_rows(setting, values, support, np.ones(support.shape))
    n = support.shape[-2]
    pen = rows[owner].reshape(support.shape[:-1] + (n,))
    pen[..., np.arange(n), np.arange(n)] = 0.0
    return pen


def unfused_credibility(setting, values, landscape, c_min):
    """Credibility as one expression per stage, with no in-place step and
    the zero-factor product always built; kept as a reference."""
    support = np.any(values != 0.0, axis=-1)
    lik = landscape.per_population(setting, values)
    positive = lik > 0.0
    safe_log = np.where(positive, np.log(np.where(positive, lik, 1.0)), 0.0)
    sup = support.astype(float)
    log_prod = sup @ np.swapaxes(safe_log, -1, -2)
    hit_zero = (sup @ np.swapaxes((~positive).astype(float), -1, -2)) > 0.0
    prod = np.exp(log_prod)
    prod[hit_zero] = 0.0
    raw = prod / (1.0 + pairwise_penalty(setting, values, support))
    return np.maximum(raw, c_min)


def dense_learning(gamma, credibility):
    """The learning matrices as the plain (N, N) quotient of each row of
    gamma * c by its sum, a dead row the uniform row; kept as a reference
    for rows that do not overflow."""
    w = np.asarray(gamma) * np.asarray(credibility)
    sums = w.sum(axis=-1, keepdims=True)
    dead = sums <= ZERO_ROW_GUARD
    out = w / np.where(dead, 1.0, sums)
    out[dead[..., 0]] = 1.0 / w.shape[-1]
    return out
