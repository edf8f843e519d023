"""Structure, credibility and social-learning matrices.

Entry (i, j) of every matrix here reads "how much j acts on i": gamma_ij is
the structural influence of agent j on agent i, c_ij the credibility i grants
j, and lambda_ij the resulting row-stochastic sampling weight.

lambda_ij is exactly 0 wherever gamma_ij is 0 (unless the row falls back to
the uniform row), so credibility and learning are built on the structure's
column table (see :func:`epidyn.sampling.support_table`): the (N, k)
entries of each row's support, k the widest row's degree.  Credibility is
computed once per distinct (population, support mask) row and gathered on
the table; learning sums each row over its table entries.  The public
(N, N) forms lay the same entries out in full.
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
from .sampling import SupportTable, support_table

# Row sums below this are treated as zero; products of many likelihoods can
# denormalize long before reaching exact zero.
ZERO_ROW_GUARD = 1e-300


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
    _checked_max(M, "structure matrix entries")
    return M


def _checked_max(M: np.ndarray, name: str) -> float:
    # the largest entry as a Python float (0 if none), after one min and
    # one max check that every entry is finite and nonnegative (NaN fails)
    if M.size == 0:
        return 0.0
    top = float(M.max())
    if not (M.min() >= 0.0 and top < np.inf):
        raise MatrixError(f"{name} must be finite and nonnegative")
    return top


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
    out: Optional[np.ndarray] = None, support: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Tensor form of :func:`compute_credibility` for a prestacked
    (..., N, n_experiences, l) value array: the (..., N, k) entries of one
    matrix per population on the structure's support ``table`` (see
    :func:`epidyn.sampling.support_table`), written to ``out`` if given.
    The elementwise work runs on the rows of the distinct (population,
    mask) keys (see :func:`_key_rows`), gathered on the table once; an
    entry (i, i), which carries no penalty, is max(exp(L_ii), c_min).
    ``support``, the stack's (..., N, n_experiences) nonzero mask, may come
    computed."""
    if support is None:
        support = np.logical_or.reduce(values != 0.0, axis=-1)  # np.any, without its wrapper
    lik = landscape.per_population(setting, values, support)
    cred, pen, owner = _key_rows(setting, values, support, lik)
    np.exp(cred, out=cred)
    n, width = table.agents.shape
    diagonal = table.own // width  # the rows i with an entry (i, i)
    diag = cred.take(owner[..., diagonal] * n + diagonal)
    pen += 1.0
    np.divide(cred, pen, out=cred)
    np.maximum(cred, c_min, out=cred)
    cred = table.entries(cred, owner, out)
    cred.reshape(cred.shape[:-2] + (-1,))[..., table.own] = np.maximum(diag, c_min, out=diag)
    return cred


def _key_rows(setting, values: np.ndarray, support: np.ndarray, lik: np.ndarray):
    """Row i of credibility depends on i only through its population and
    its support mask, but for the entry (i, i).  So each distinct
    (population, mask) key of the (..., N, E, l) stack gets its 0/1 mask
    times its population's log-likelihoods (-inf where one is exactly 0;
    one BLAS product per population) and its penalty row.  Returns these
    (K, N) rows and the (..., N) key of each agent."""
    n, n_exp = support.shape[-2:]
    # each agent's mask as one bytes key; dicts keep the order of first appearance
    keys = support.reshape(-1, n_exp).view(f"V{n_exp}").ravel().tolist()
    masks, owner, bounds = [], [], [0]
    for s in range(0, len(keys), n):
        agents = keys[s : s + n]
        distinct = dict.fromkeys(agents)
        index = dict(zip(distinct, range(len(masks), len(masks) + len(distinct))))
        owner += map(index.__getitem__, agents)
        masks += distinct
        bounds.append(len(masks))
    masks = np.frombuffer(b"".join(masks), dtype=bool).reshape(len(masks), n_exp)
    owner = np.array(owner).reshape(support.shape[:-1])
    # first, so that the penalty's temporaries are freed before these rows
    pen = _penalty_rows(setting, values, support, masks, bounds)
    sel = masks.astype(float)
    positive = lik > 0.0
    safe_log = np.where(positive, np.log(np.where(positive, lik, 1.0)), 0.0)
    safe_log = safe_log.reshape(-1, n, n_exp)
    zero = None if positive.all() else (~positive).reshape(-1, n, n_exp).astype(float)
    log = np.empty((len(masks), n))
    for p, (s, e) in enumerate(zip(bounds, bounds[1:])):
        np.matmul(sel[s:e], safe_log[p].T, out=log[s:e])
        if zero is not None:
            # an exact-zero factor: a concept of j on an experience i conceptualizes
            log[s:e][sel[s:e] @ zero[p].T > 0.0] = -np.inf
    return log, pen, owner


def _penalty_rows(setting, values, support, masks, bounds) -> np.ndarray:
    # the (K, N) variety of j's nonzero concepts over each key's mask (see
    # _key_rows); population p's keys are bounds[p]:bounds[p + 1]
    n, n_exp, dim = values.shape[-3:]
    pops = values.reshape(-1, n, n_exp, dim)
    spans = list(zip(bounds, bounds[1:]))
    concepts = setting.concepts
    pen = np.empty((len(masks), n))
    if isinstance(concepts, DiscreteConcepts):
        # distinct nonzero concepts of j over the mask, from a presence count
        sel = masks.astype(float)
        idx = concepts.index_of(pops.reshape(-1, dim)).reshape(pops.shape[:-1])
        n_c = len(concepts) - 1
        onehot = (idx[..., None] == np.arange(1, n_c + 1)).astype(float)
        # masks in blocks, so the (masks, N * C) counts stay near one megabyte;
        # the counts are small integers, so the BLAS product is exact
        block = max(1, (1 << 17) // max(1, n * n_c))
        for p, (s, e) in enumerate(spans):
            per_exp = onehot[p].transpose(1, 0, 2).reshape(n_exp, n * n_c)
            for b in range(s, e, block):
                part = sel[b : min(b + block, e)]
                used = (part @ per_exp > 0.0).reshape(len(part), n, n_c)
                pen[b : b + len(part)] = np.maximum(used.sum(axis=-1) - 1, 0)
    elif concepts.dim == 1:
        # max(v) - min(v) = max(v) + max(-v), so one max over E of the
        # (2, P, E, N) stack of v and -v, -inf off the support, gives both
        # ends; laid out in that order, the max runs along rows of N agents
        v = pops[..., 0].transpose(0, 2, 1)
        signed = np.array((v, -v))
        np.copyto(signed, -np.inf, where=~support.reshape(v.shape[0], n, n_exp).transpose(0, 2, 1))
        # masks in blocks, so the (2, masks, E, N) slab stays near one megabyte;
        # a mask that meets none of j's concepts spans -inf + -inf = -inf
        block = max(1, (1 << 16) // (n * n_exp))
        pop = np.repeat(np.arange(len(spans)), np.diff(bounds))
        for s in range(0, len(masks), block):
            part, own = masks[s : s + block, :, None], pop[s : s + block]
            ends = np.maximum.reduce(signed[:, own], axis=-2, where=part, initial=-np.inf)
            span = np.add(ends[0], ends[1], out=pen[s : s + block])
            np.maximum(span, 0.0, out=span)
    else:
        for p, (s, e) in enumerate(spans):
            pen[s:e] = [
                [usage_penalty(v[m], concepts) if m.any() else 0.0 for v in pops[p]]
                for m in masks[s:e]
            ]
    return pen


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

    Each row is summed over its entries on the structure's support table
    (see :func:`epidyn.sampling.support_table`).  With a ``table``, the
    inputs and the result hold only those entries, (N, k) and (..., N, k),
    and a dead row, uniform over all N agents, is all zero there.
    """
    G = np.asarray(gamma, dtype=float)
    C = np.asarray(credibility, dtype=float)
    if table is not None:
        return _learning(G, C, out, table, checked)[0]
    G = G if checked else validate_structure(G)
    if C.shape[-2:] != G.shape:
        raise MatrixError(f"dimension mismatch: structure {G.shape}, credibility {C.shape}")
    _checked_max(C, "credibility entries")  # off the table too
    table = support_table(G)
    entries, dead = _learning(table.entries(G), table.entries(C), None, table, True)
    return table.layout(entries, dead, out)


def _learning(G, C, out, table, checked):
    # compute_social_learning on the table, and the mask of its dead rows
    if G.shape != table.agents.shape or C.shape[-2:] != G.shape:
        raise MatrixError(
            f"dimension mismatch: structure entries {G.shape} on a table of "
            f"{table.agents.shape}, credibility {C.shape}"
        )
    top = float(G.max()) if checked else _checked_max(G, "structure entries")
    # Python floats: a product past the range is inf, with no warning
    top *= _checked_max(C, "credibility entries")
    if top * G.shape[-1] < 1e308:  # no product, nor a sum of k of them, overflows
        w = np.multiply(G, C, out=out)
        sums = w.sum(axis=-1)
    else:
        w, sums = _rescued_products(G, C, out)
    dead = sums <= ZERO_ROW_GUARD
    sums[dead] = np.inf  # a dead row's entries become 0
    return np.divide(w, sums[..., None], out=w), dead


def _rescued_products(G, C, out):
    # G * C and its row sums, a row whose products or sum overflow rescaled
    if out is not None and np.may_share_memory(out, C):
        C = C.copy()  # an overflowing row is rebuilt from the credibility
    with np.errstate(over="ignore"):  # an overflowing row is rescued below
        w = np.multiply(G, C, out=out)
        sums = w.sum(axis=-1)
    over = np.nonzero(sums == np.inf)
    if len(over[0]):
        w[over] = _scaled_products(G[over[-1]], C[over])
        sums[over] = w[over].sum(axis=-1)
    return w, sums


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
    """The learning matrix of structure ``M`` under unit credibility: each
    row over its sum, a row summing to at most ``ZERO_ROW_GUARD`` uniform."""
    return compute_social_learning(M, np.broadcast_to(1.0, np.shape(M)))
