"""Structure, credibility and social-learning matrices.

Entry (i, j) of every matrix here reads "how much j acts on i": gamma_ij is
the structural influence of agent j on agent i, c_ij the credibility i grants
j, and lambda_ij the resulting row-stochastic sampling weight.

lambda_ij is exactly 0 wherever gamma_ij is 0 (unless the row falls back to
the uniform row), so credibility and learning are built on the structure's
column table (see :func:`epidyn.sampling.support_table`): the (N, k)
entries of each row's support, k the widest row's degree, with the bits of
the same entries of the full (N, N) forms.  The public (N, N) forms are the
same computation on the complete structure's table, which is the row layout
itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .knowledge import (
    DiscreteConcepts,
    KnowledgeFunction,
    LikelihoodLandscape,
    usage_penalty,
)
from .sampling import SupportTable

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
    if M.size == 0:
        # no agent, so no uniform row 1/N for a learning matrix to fall back to
        raise MatrixError("structure matrix must have at least one agent")
    if not _finite_nonnegative(M):
        raise MatrixError("structure matrix entries must be finite and nonnegative")
    return M


def _finite_nonnegative(M: np.ndarray) -> bool:
    # one min and one max reduction; a NaN entry makes both NaN, and NaN
    # fails both comparisons
    return M.size == 0 or (M.min() >= 0.0 and M.max() < np.inf)


def validate_stochastic(A, tol: float = 1e-9) -> np.ndarray:
    M = _square(A, "stochastic matrix")
    if not np.isfinite(M).all():
        raise MatrixError("stochastic matrix entries must be finite")
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
    return credibility_from_values(
        ks[0].setting, values, landscape, c_min, SupportTable.complete(len(ks))
    )


def credibility_from_values(
    setting, values: np.ndarray, landscape, c_min: float, table: SupportTable,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Tensor form of :func:`compute_credibility` for a prestacked
    (..., N, n_experiences, l) value array: the (..., N, k) entries of one
    matrix per population on the structure's support ``table`` (see
    :func:`epidyn.sampling.support_table`).  The products stay stacked, one
    per population, so each matrix rounds as it would alone.  The full
    log-likelihood products are taken, into the (..., N, N) ``out`` if
    given, and the entries read from them; the rest is done on the table.
    """
    support = np.any(values != 0.0, axis=-1)
    lik = landscape.per_population(setting, values)

    positive = lik > 0.0
    safe_log = np.where(positive, np.log(np.where(positive, lik, 1.0)), 0.0)
    sup = support.astype(float)
    prod = np.matmul(sup, np.swapaxes(safe_log, -1, -2), out=out)
    cred = table.entries(prod)
    np.exp(cred, out=cred)
    if not positive.all():
        # an exact-zero factor: a concept of j on an experience i conceptualizes
        hit = sup @ np.swapaxes((~positive).astype(float), -1, -2)
        cred[table.entries(hit) > 0.0] = 0.0
        del hit  # not held through the penalty
    # penalty (i, j) from the row of i's mask, 0 on the entries (i, i)
    rows, owner = _penalty_rows(setting, values, support)
    if len(rows) == len(owner):  # every mask its own: the rows are the agents' rows
        pen = table.entries(rows.reshape(prod.shape))
    else:
        pen = table.entries(rows, owner.reshape(support.shape[:-1]))
    pen.reshape(pen.shape[:-2] + (-1,))[..., table.own] = 0.0
    pen += 1.0
    np.divide(cred, pen, out=cred)
    return np.maximum(cred, c_min, out=cred)


def _penalty_rows(setting, values: np.ndarray, support: np.ndarray):
    """Penalty of agent j as seen by agent i, per population of the
    (..., N, E, l) stack: variety of j's nonzero concepts over the
    experiences i has conceptualized, before the diagonal is zeroed.

    Row i depends on i only through its population and its support mask,
    so each distinct (population, mask) pair is evaluated once against its
    own population.  Returns the (K, N) rows of the K distinct pairs and
    the (R * N,) ``owner``, the row of each agent of the stack.
    """
    n, n_exp, dim = values.shape[-3:]
    pops = values.reshape(-1, n, n_exp, dim)
    keys = {}
    owner = [
        keys.setdefault((p, row.tobytes()), len(keys))
        for p, rows in enumerate(support.reshape(-1, n, n_exp))
        for row in rows
    ]
    pop = np.array([p for p, _ in keys])
    masks = np.frombuffer(b"".join(mask for _, mask in keys), dtype=bool).reshape(len(keys), -1)

    concepts = setting.concepts
    if isinstance(concepts, DiscreteConcepts):
        # distinct nonzero concepts of j over the mask, from a presence
        # count; a population's keys are contiguous
        idx = concepts.index_of(pops.reshape(-1, dim)).reshape(pops.shape[:-1])
        n_c = len(concepts) - 1
        onehot = (idx[..., None] == np.arange(1, n_c + 1)).astype(float)
        first = np.searchsorted(pop, np.arange(len(pops) + 1))
        # masks in blocks, so the (masks, N * C) counts stay near one megabyte;
        # the counts are small integers, so the BLAS product is exact
        block = max(1, (1 << 17) // max(1, n * n_c))
        pen = np.empty((len(masks), n))
        for p, (s, e) in enumerate(zip(first[:-1], first[1:])):
            per_exp = onehot[p].transpose(1, 0, 2).reshape(n_exp, n * n_c)
            for b in range(s, e, block):
                sel = masks[b : min(b + block, e)]
                used = (sel.astype(float) @ per_exp > 0.0).reshape(len(sel), n, n_c)
                pen[b : b + len(sel)] = np.maximum(used.sum(axis=-1) - 1, 0)
    elif concepts.dim == 1:
        present = support.reshape(pops.shape[:-1])
        highs = np.where(present, pops[..., 0], -np.inf)
        lows = np.where(present, pops[..., 0], np.inf)
        # masks in blocks, so the (masks, N, E) slab stays near one megabyte
        block = max(1, (1 << 17) // (n * n_exp))
        pen = np.empty((len(masks), n))
        for s in range(0, len(masks), block):
            sel, own = masks[s : s + block, None, :], pop[s : s + block]
            span = (
                np.where(sel, highs[own], -np.inf).max(axis=2)
                - np.where(sel, lows[own], np.inf).min(axis=2)
            )
            pen[s : s + block] = np.where(np.isfinite(span), np.maximum(span, 0.0), 0.0)
    else:
        pen = np.array(
            [
                [usage_penalty(v[m], concepts) if m.any() else 0.0 for v in pops[p]]
                for p, m in zip(pop, masks)
            ]
        )
    return pen, np.array(owner)


def compute_social_learning(
    gamma, credibility, out: Optional[np.ndarray] = None, table: Optional[SupportTable] = None,
    *, checked: bool = False,
) -> np.ndarray:
    """Row-stochastic learning matrix from structure and credibility.

    lambda_ij is gamma_ij * c_ij over its row sum; rows whose sum vanishes
    fall back to the uniform row 1/N.  A row whose products or sum
    overflow is rescaled first (see :func:`_scaled_products`), so every
    finite nonnegative input gives stochastic rows; every other row keeps
    the bits of the plain quotient.  ``credibility`` may stack (N, N)
    matrices along leading axes, one per population; the structure is
    validated once for all of them, or not at all when ``checked`` says a
    caller has validated it already (a run does, once for all its steps).
    ``out``, if given, is the float array of the credibility's shape the
    result is written to; it may be the credibility itself.

    These (N, N) matrices are the same computation on the complete
    structure's table.  With a support ``table`` (see
    :func:`epidyn.sampling.support_table`), ``gamma``, ``credibility`` and
    the result hold only the table's entries, (N, k) and (..., N, k); a dead
    row, uniform over all N agents, is all zero there.  Each row sum is
    taken over the full row, zeros included, so that it has the bits of the
    (N, N) form's sum: ``out``, if given, is then a (..., N, N) float
    array, zero off the table, that the weights are laid out in.
    """
    G = np.asarray(gamma, dtype=float)
    C = np.asarray(credibility, dtype=float)
    if table is not None:
        return _learning(G, C, out, table, checked)[0]
    G = G if checked else validate_structure(G)
    if out is not None and np.may_share_memory(out, C):
        C = C.copy()  # an overflowing row is rebuilt from the credibility
    learning, dead = _learning(G, C, out, SupportTable.complete(len(G)), True)
    learning[dead] = 1.0 / len(G)
    return learning


def _learning(G, C, rows, table, checked):
    # compute_social_learning on the table, and the mask of its dead rows
    if G.shape != table.agents.shape or C.shape[-2:] != G.shape:
        raise MatrixError(
            f"dimension mismatch: structure entries {G.shape} on a table of "
            f"{table.agents.shape}, credibility {C.shape}"
        )
    if not (checked or _finite_nonnegative(G)):
        raise MatrixError("structure entries must be finite and nonnegative")
    if not _finite_nonnegative(C):
        raise MatrixError("credibility entries must be finite and nonnegative")
    n = len(G)
    if rows is None:
        rows = np.zeros(C.shape[:-1] + (n,))
    with np.errstate(over="ignore"):  # an overflowing row is rescued below
        w = table.weights(G, C, rows)
        sums = rows.sum(axis=-1)
    over = np.nonzero(sums == np.inf)
    if len(over[0]):
        w[over] = _scaled_products(G[over[-1]], C[over])
        # summed over the full row layout, as the (N, N) form sums them
        layout = np.zeros((len(over[0]), n))
        layout[np.arange(len(layout))[:, None], table.agents[over[-1]]] = w[over]
        sums[over] = layout.sum(axis=-1)
    dead = sums <= ZERO_ROW_GUARD
    sums[dead] = np.inf  # a dead row's entries become 0
    return np.divide(w, sums[..., None], out=w), dead


def _scaled_products(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows of the products g * c, each scaled by one power of two so that
    its largest product lies in [1/4, 1): the rescue of a row whose
    products or sum overflow.  Each product is its mantissas' product
    times a power of two, so it has the bits of g * c computed without
    overflow, until it falls below the normal range."""
    mg, eg = np.frexp(g)
    mc, ec = np.frexp(c)
    mantissa, exponent = mg * mc, eg + ec
    top = np.max(exponent, axis=-1, keepdims=True, where=mantissa > 0.0,
                 initial=np.iinfo(exponent.dtype).min)
    return np.ldexp(mantissa, exponent - top)


def normalize_rows(M) -> np.ndarray:
    """Divide each row by its sum; zero rows become the uniform row.  A row
    whose sum overflows is rescaled first, as in
    :func:`compute_social_learning`."""
    A = _square(M, "matrix")
    if not _finite_nonnegative(A):
        raise MatrixError("entries must be finite and nonnegative")
    with np.errstate(over="ignore"):  # a row whose sum overflows is rescued below
        sums = A.sum(axis=-1, keepdims=True)
    over = np.flatnonzero(sums == np.inf)
    if len(over):
        A = A.copy()  # not written over the caller's matrix
        A[over] = _scaled_products(A[over], 1.0)
        sums[over] = A[over].sum(axis=-1, keepdims=True)
    return _rows_or_uniform(A, 0.0, sums=sums)


def _rows_or_uniform(w: np.ndarray, guard: float, sums=None) -> np.ndarray:
    # each row over its sum (``sums``, if given, is w.sum(axis=-1,
    # keepdims=True)) as a new array; rows summing to at most ``guard``
    # become 1/N (a NaN sum is not at most ``guard``, so its row stays NaN)
    if sums is None:
        sums = w.sum(axis=-1, keepdims=True)
    dead = sums <= guard
    # dead rows divide by 1 (no warning, the unmasked loop) and are then
    # overwritten
    out = np.divide(w, np.where(dead, 1.0, sums))
    out[dead[..., 0]] = 1.0 / w.shape[-1]
    return out
