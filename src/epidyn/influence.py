"""Structure, credibility and social-learning matrices.

Entry (i, j) of every matrix here reads "how much j acts on i": gamma_ij is
the structural influence of agent j on agent i, c_ij the credibility i grants
j, and lambda_ij the resulting row-stochastic sampling weight.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .knowledge import (
    DiscreteConcepts,
    KnowledgeFunction,
    LikelihoodLandscape,
    usage_penalty,
)

# Row sums below this are treated as zero; products of many likelihoods can
# denormalize long before reaching exact zero.
ZERO_ROW_GUARD = 1e-300

ROW_SUM_TOL = 1e-12


class MatrixError(ValueError):
    """Raised on malformed matrix inputs (shape, sign or stochasticity)."""


def _square(A, name: str) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MatrixError(f"{name} must be square, got shape {M.shape}")
    return M


def validate_structure(gamma) -> np.ndarray:
    M = _square(gamma, "structure matrix")
    if not np.all((M >= 0.0) & (M < np.inf)):
        raise MatrixError("structure matrix entries must be finite and nonnegative")
    return M


def validate_stochastic(A, tol: float = 1e-9) -> np.ndarray:
    M = _square(A, "stochastic matrix")
    if np.any(M < -tol):
        raise MatrixError("stochastic matrix entries must be nonnegative")
    if np.any(np.abs(M.sum(axis=1) - 1.0) > tol):
        raise MatrixError("rows must sum to 1")
    return M


def compute_credibility(
    population: Sequence[KnowledgeFunction],
    landscape: LikelihoodLandscape,
    c_min: float,
) -> np.ndarray:
    """Credibility matrix of a population under a likelihood landscape.

    The raw credibility i grants j is the product of the likelihoods of j's
    concepts over the experiences i has conceptualized, damped by a parsimony
    penalty on the variety of concepts j uses across those same experiences
    (no self-penalty).  An agent that conceptualizes nothing grants everyone
    the empty product 1.  Entries are floored at ``c_min``.

    Likelihood products are accumulated in log space with an explicit zero
    state, so exact-zero factors survive and long products do not underflow
    pairwise.
    """
    if c_min < 0.0:
        raise MatrixError("c_min must be nonnegative")
    ks = list(population)
    if not ks:
        raise MatrixError("population must contain at least one agent")
    values = np.stack([k.values for k in ks])
    return credibility_from_values(ks[0].setting, values, landscape, c_min)


def credibility_from_values(setting, values: np.ndarray, landscape, c_min: float) -> np.ndarray:
    """Tensor form of :func:`compute_credibility` for a prestacked
    (N, n_experiences, l) value array."""
    support = np.any(values != 0.0, axis=-1)
    lik = landscape.per_population(setting, values)

    positive = lik > 0.0
    safe_log = np.where(positive, np.log(np.where(positive, lik, 1.0)), 0.0)
    sup = support.astype(float)
    log_prod = sup @ safe_log.T
    hit_zero = (sup @ (~positive).astype(float).T) > 0.0
    prod = np.exp(log_prod)
    prod[hit_zero] = 0.0

    raw = prod / (1.0 + _pairwise_penalty(setting, values, support))
    return np.maximum(raw, c_min)


def _pairwise_penalty(setting, values: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Penalty of agent j as seen by agent i: variety of j's nonzero concepts
    over the experiences i has conceptualized.  Diagonal is zero.

    Row i depends on i only through its support mask, so each distinct mask
    is evaluated once and its row copied to the agents that share it.
    """
    keys = {}
    owner = [keys.setdefault(row.tobytes(), len(keys)) for row in support]
    masks = np.frombuffer(b"".join(keys), dtype=bool).reshape(len(keys), -1)

    concepts = setting.concepts
    if isinstance(concepts, DiscreteConcepts):
        # distinct nonzero concepts of j over the mask, from a presence count
        n, n_exp, dim = values.shape
        idx = concepts.index_of(values.reshape(-1, dim)).reshape(n, n_exp)
        onehot = (idx[:, :, None] == np.arange(1, len(concepts))).astype(float)
        used = np.einsum("ke,jec->kjc", masks.astype(float), onehot) > 0.0
        pen = np.maximum(used.sum(axis=-1) - 1, 0).astype(float)
    elif concepts.dim == 1:
        v1 = values[:, :, 0]
        highs = np.where(support, v1, -np.inf)
        lows = np.where(support, v1, np.inf)
        # masks in blocks, so the (masks, N, E) slab stays near one megabyte
        block = max(1, (1 << 17) // highs.size)
        pen = np.empty((len(masks), len(values)))
        for s in range(0, len(masks), block):
            sel = masks[s : s + block, None, :]
            span = (
                np.where(sel, highs, -np.inf).max(axis=2)
                - np.where(sel, lows, np.inf).min(axis=2)
            )
            pen[s : s + block] = np.where(np.isfinite(span), np.maximum(span, 0.0), 0.0)
    else:
        pen = np.array(
            [[usage_penalty(v[m], concepts) if m.any() else 0.0 for v in values] for m in masks]
        )
    pen = pen[owner]
    np.fill_diagonal(pen, 0.0)
    return pen


def compute_social_learning(gamma, credibility) -> np.ndarray:
    """Row-stochastic learning matrix from structure and credibility.

    lambda_ij is gamma_ij * c_ij over its row sum; rows whose sum vanishes
    fall back to the uniform row 1/N.
    """
    G = validate_structure(gamma)
    C = _square(credibility, "credibility matrix")
    if G.shape != C.shape:
        raise MatrixError(
            f"dimension mismatch: structure {G.shape} vs credibility {C.shape}"
        )
    if not np.all((C >= 0.0) & (C < np.inf)):
        raise MatrixError("credibility entries must be finite and nonnegative")
    return _rows_or_uniform(G * C, ZERO_ROW_GUARD)


def normalize_rows(M) -> np.ndarray:
    """Divide each row by its sum; zero rows become the uniform row."""
    A = _square(M, "matrix")
    if np.any(A < 0.0):
        raise MatrixError("entries must be nonnegative")
    return _rows_or_uniform(A, 0.0)


def _rows_or_uniform(w: np.ndarray, guard: float) -> np.ndarray:
    # each row over its sum; rows summing to at most ``guard`` become 1/N
    sums = w.sum(axis=1)
    out = np.empty_like(w)
    dead = sums <= guard
    out[dead] = 1.0 / len(w)
    live = ~dead
    out[live] = w[live] / sums[live, None]
    return out


def write_matrix_csv(M, path) -> None:
    """Row-major CSV with header row j0,j1,..."""
    A = np.asarray(M, dtype=float)
    header = ",".join(f"j{j}" for j in range(A.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in A:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("j0"):
            raise MatrixError(f"missing j0,j1,... header in {path}")
        rows = [
            [float(x) for x in line.split(",")]
            for line in fh.read().splitlines()
            if line
        ]
    return np.asarray(rows, dtype=float)
