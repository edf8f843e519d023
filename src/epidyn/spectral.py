"""Graph and spectral diagnostics for influence matrices.

Primitivity, communication, contraction coefficients, and the sample-size
calculator that turns the concentration bound into a concrete draw count.
``is_primitive``, ``dobrushin_coefficient`` and ``analyze`` run on a
support table: a dense (N, N) matrix goes on the table of its nonzero
pattern, or, with a ``table``, A holds the (N, k) entries on it that
:func:`epidyn.influence.compute_social_learning` returns, a row with no
positive entry being dead, the uniform row 1/N.  A positive entry (i, j)
is an edge i -> j; an entry that underflowed to 0 is none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .influence import MatrixError, _square, normalize_rows, validate_stochastic
from .knowledge import BoxConcepts, KnowledgeSetting
from .sampling import SupportTable, support_table

# The exponent's frontier gives up once the exact exponent provably takes
# more than this many uint64 words of work (the crowd ring at N = 1000
# takes 2^24), and the report states the Wielandt bound instead.  The dense
# eigenvalues, and the dense Dobrushin row scan when every two rows meet,
# are taken up to DENSE_CAP agents (about 1 s each at 1000).
FRONTIER_WORDS = 1 << 26
DENSE_CAP = 1000
BLOCK_BYTES = 1 << 22  # the bitset rows gathered at once, in bytes


class BoundInapplicableError(ValueError):
    """The closed-form entry bound does not apply to these inputs."""


def _on_table(A, table, stochastic=False):
    # (entries, table, dead rows) of a dense matrix (validated), on the
    # table of its nonzero pattern, or of entries on a table
    if table is None:
        M = validate_stochastic(A) if stochastic else _square(A, "matrix")
        table = support_table(M != 0.0)
        return table.entries(M), table, np.zeros(len(M), dtype=bool)
    entries = np.asarray(A, dtype=float)
    if entries.shape != table.agents.shape:
        raise MatrixError(f"entries of shape {entries.shape} on a table of {table.agents.shape}")
    return entries, table, ~(entries > 0.0).any(axis=1)


class _Edges(NamedTuple):
    # a pattern's edges on its table, each direction built once by _graph;
    # analyze hands it to is_primitive and dobrushin_coefficient as their table
    table: SupportTable
    forward: tuple
    back: tuple


def _edges(A, table, stochastic=False):
    # (entries, dead rows, _Edges) of A, read as _on_table reads it; the
    # edges are ``table``'s own when it is an _Edges
    edges = table if isinstance(table, _Edges) else None
    entries, table, dead = _on_table(A, table if edges is None else edges.table, stochastic)
    if edges is None:
        edges = _Edges(table, _graph(entries, table), _graph(entries, table, True))
    return entries, dead, edges


def _graph(entries, table, reverse=False):
    # the heads of row i's edges, heads[offsets[i]:offsets[i + 1]], as
    # (offsets, heads); with ``reverse``, those of the transpose
    positive = entries > 0.0
    tails, heads = np.nonzero(positive)[0], np.broadcast_to(table.agents, positive.shape)[positive]
    if reverse:
        order = np.argsort(heads, kind="stable")
        tails, heads = heads[order], tails[order]
    offsets = np.zeros(len(entries) + 1, dtype=np.intp)
    np.cumsum(np.bincount(tails, minlength=len(entries)), out=offsets[1:])
    return offsets, heads


def _levels(graph, sources, dead) -> np.ndarray:
    # breadth-first levels from ``sources``, -1 where unreached
    offsets, heads = graph
    level = np.full(len(offsets) - 1, -1)
    frontier, depth = np.asarray(sources, dtype=np.intp), 0
    while len(frontier):
        level[frontier], depth = depth, depth + 1
        if dead[frontier].any():  # an edge to every agent
            reached = np.arange(len(level))
        else:
            count = offsets[frontier + 1] - offsets[frontier]
            at = np.repeat(offsets[frontier] - np.cumsum(count) + count, count)
            reached = heads[at + np.arange(len(at))]
        reached = np.sort(reached[level[reached] < 0])
        frontier = reached[np.diff(reached, prepend=-1) != 0]
    return level


def _bitsets(offsets, heads, n: int) -> np.ndarray:
    # (rows + 1, ceil(n / 64)) uint64: bit j % 64 of word j // 64 of row i
    # set for each head j of row i; the last row stays empty
    bits = np.zeros((len(offsets), -(-n // 64)), dtype=np.uint64)
    tails = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    np.bitwise_or.at(bits, (tails, heads >> 6), np.uint64(1) << (heads & 63).astype(np.uint64))
    return bits


def _spread(bits, graph, dead):
    # blocks (first row, rows) of about BLOCK_BYTES of the OR of bits[j]
    # over the edges i -> j of each row i, over every j for a dead row
    offsets, heads = graph
    n = len(dead)
    everyone = np.bitwise_or.reduce(bits[:n], axis=0)
    rows = max(1, BLOCK_BYTES // (bits.nbytes // len(bits) * max(1, np.diff(offsets).max())))
    for s in range(0, n, rows):
        at = offsets[s : s + rows + 1]
        # the block's heads, then empty row N: a last row without heads reads it
        part = np.bitwise_or.reduceat(bits[np.append(heads[at[0] : at[-1]], n)], at[:-1] - at[0], axis=0)
        part[dead[s : s + rows]] = everyone
        yield s, part


def _exponent(graph, dead, depth: int) -> Optional[int]:
    # the first t with A^t > 0 of a primitive pattern, row i of A^(t+1)
    # the OR of the rows j of A^t over i -> j; None once the exponent,
    # at least ``depth``, would take more than FRONTIER_WORDS
    n = len(dead)
    power = _bitsets(*graph, n)
    full = _bitsets([0, n], np.arange(n), n)[0]
    power[:n][dead] = full
    spare, t, per_step = np.zeros_like(power), 1, (len(graph[1]) + n) * len(full)
    while not (power[:n] == full).all():
        if per_step * max(t, depth - 1) > FRONTIER_WORDS:
            return None
        for s, part in _spread(power, graph, dead):
            spare[s : s + len(part)] = part
        power, spare, t = spare, power, t + 1
    return t


def communicates(A, i: int, j: int) -> bool:
    """True iff a directed path of length >= 1 through strictly positive
    entries leads from i to j."""
    entries, table, dead = _on_table(A, None)
    if not (0 <= i < len(dead) and 0 <= j < len(dead)):
        raise IndexError(f"agent index out of range for size {len(dead)}")
    offsets, heads = graph = _graph(entries, table)
    return bool(_levels(graph, heads[offsets[i] : offsets[i + 1]], dead)[j] >= 0)


def is_primitive(A, table=None) -> Tuple[bool, Optional[int]]:
    """Whether some power of the nonnegative matrix is strictly positive.

    Returns (True, k), k the first exponent with A^k > 0, or (False, None).
    The pattern is primitive when a breadth-first search from agent 0 along
    the edges and one against them reach every agent, and the gcd of
    level(i) + 1 - level(j) over the edges i -> j, the levels from the
    first search, is 1: that gcd is the period (Denardo, Math. Oper. Res.
    2(1), 1977).  The exponent follows the rows of A^t as bitsets, each row
    of A^(t+1) the OR of rows of A^t over its edges.  Positivity is
    monotone (A^k > 0 leaves A without a zero row, so A^(k+1) = A A^k > 0),
    so the first full power is the exponent.  It is None when it would take
    more than ``FRONTIER_WORDS`` words of work.
    """
    entries, dead, edges = _edges(A, table)
    if np.any(entries < 0.0):
        raise MatrixError("primitivity is defined for nonnegative matrices")
    graph = edges.forward
    level = _levels(graph, [0], dead)
    back = _levels(edges.back, np.r_[0, np.flatnonzero(dead)], np.zeros_like(dead))
    tails = np.repeat(np.arange(len(dead)), np.diff(graph[0]))
    # a dead row has the self-loop i -> i, which makes the gcd 1
    period = 1 if dead.any() else np.gcd.reduce(level[tails] + 1 - level[graph[1]])
    if (level < 0).any() or (back < 0).any() or period != 1:
        return False, None
    return True, _exponent(graph, dead, int(level.max()))


def entry_lower_bound(gamma, c_min: float) -> float:
    """Closed-form lower bound on the entries of the learning matrix built
    from a strictly positive structure matrix and credibility floor.

    The structure matrix is row-normalized first; the bound is
    min(1/N, m*c_min / (N*(1 - N*m))) with m its minimal entry, and only
    applies when N*m < 1 (otherwise the denominator is not positive).
    """
    G = np.asarray(gamma, dtype=float)
    if np.any(G <= 0.0):
        raise BoundInapplicableError("structure matrix must be strictly positive")
    if c_min <= 0.0:
        raise BoundInapplicableError("bound requires c_min > 0")
    n = G.shape[0]
    m = normalize_rows(G).min()
    if n * m >= 1.0:
        raise BoundInapplicableError(
            f"bound inapplicable: N*min(gamma) = {n * m:.6g} >= 1"
        )
    return min(1.0 / n, m * c_min / (n * (1.0 - n * m)))


def dobrushin_coefficient(A, table=None) -> float:
    """Contraction coefficient of a row-stochastic matrix on the max-spread
    seminorm max_{i,j} |x_i - x_j|: half the largest L1 distance between rows.

    Two rows with disjoint supports are at distance 2, so the coefficient is
    exactly 1.  The rows that meet row i are the OR, over its edges i -> j,
    of the bitsets of the rows with an edge to j, and the search stops at
    the first block of rows with one that misses a row.  Otherwise row i is
    compared with rows i.. of the dense matrix in one reused N x N buffer,
    each distance summed along the last axis, and |x - y| = |y - x| exactly,
    so the result matches the full N^3 tensor to the bit.  A dense matrix
    is validated first (see :func:`epidyn.influence.validate_stochastic`).
    """
    entries, dead, edges = _edges(A, table, stochastic=True)
    if _has_disjoint_rows(edges, dead):
        return 1.0
    M = edges.table.layout(entries, dead)
    diff = np.empty_like(M)
    widest = [
        np.abs(np.subtract(M[i:], M[i], out=diff[i:]), out=diff[i:]).sum(axis=-1).max()
        for i in range(len(M))
    ]
    return float(max(widest) / 2.0)


def _has_disjoint_rows(edges, dead) -> bool:
    # whether two rows share no positive column (see dobrushin_coefficient)
    n = len(dead)
    meets = _bitsets(*edges.back, n)  # row j: the rows with an edge to j
    full, dead_rows = _bitsets([0, n, n + dead.sum()], np.r_[np.arange(n), np.flatnonzero(dead)], n)[:2]
    meets[:n] |= dead_rows
    return any((part != full).any() for _, part in _spread(meets, edges.forward, dead))


def second_modulus(A) -> float:
    """Modulus of the second-largest eigenvalue (dense decomposition)."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MatrixError("matrix must be square")
    if M.shape[0] == 1:
        return 0.0
    mods = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
    return float(mods[1])


def covering_number_log_bound(setting: KnowledgeSetting, eps: float) -> float:
    """Upper bound on the log covering number of the tabular hypothesis
    class over a concept box, for sup-norm balls of radius ``eps``.

    Each table cell is covered independently by a grid of
    ceil(range / (2 eps)) points per component.
    """
    if not isinstance(setting.concepts, BoxConcepts):
        raise MatrixError("covering bound requires a box concept space")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    ranges = setting.concepts.hi - setting.concepts.lo
    per_dim = np.maximum(np.ceil(ranges / (2.0 * eps)), 1.0)
    return float(setting.n_experiences * np.log(per_dim).sum())


def required_sample_size(
    t: int,
    n_agents: int,
    M: float,
    alpha_star: float,
    delta: float,
    d0: float,
    setting: KnowledgeSetting,
) -> int:
    """Sample size per step sufficient for the geometric-convergence bound to
    hold through step ``t`` with confidence 1 - delta.

    Uses eta = alpha_star^(2t) * d0^2 / N and
    m = ceil((288 M^2 / eta) * (ln N(F, eta / 24M) + ln(tN) + ln(1/delta))),
    with the covering number replaced by its tabular log bound and the
    ln(tN) term clamped at t = 1.
    """
    if not 0.0 < alpha_star < 1.0:
        raise ValueError("alpha_star must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if d0 <= 0.0 or M <= 0.0:
        raise ValueError("d0 and M must be positive")
    if t < 0 or n_agents < 1:
        raise ValueError("t must be >= 0 and n_agents >= 1")
    eta = alpha_star ** (2 * t) * d0**2 / n_agents
    cover = covering_number_log_bound(setting, eta / (24.0 * M))
    body = cover + math.log(max(t, 1) * n_agents) + math.log(1.0 / delta)
    return int(math.ceil(288.0 * M**2 / eta * body))


@dataclass(frozen=True)
class SpectralReport:
    """Summary of the contraction diagnostics of a learning matrix.
    ``skipped`` says why a field is not exact: the Wielandt bound for the
    exponent, None for the modulus, or Dobrushin's upper bound 1;
    :meth:`to_dict` leaves out an empty ``skipped`` and a None modulus."""

    is_primitive: bool
    primitivity_exponent: Optional[int]
    second_modulus: Optional[float]
    dobrushin: float
    min_entry: float
    skipped: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = asdict(self)
        if self.second_modulus is None:
            del doc["second_modulus"]
        if not self.skipped:
            del doc["skipped"]
        return doc


def analyze(A, table=None) -> SpectralReport:
    """Spectral report for a row-stochastic matrix, dense or as its entries
    on ``table``.  The dense matrix is validated (on a table, the one laid
    out for the eigenvalues); validation admits entries down to -tol, and
    primitivity reads them as the zero edges they round from.  Past
    ``DENSE_CAP`` agents the modulus is omitted and Dobrushin is 1, exact at
    a disjoint pair of rows, else an upper bound stated under ``skipped``.
    """
    entries, dead, edges = _edges(A, table, stochastic=True)
    n = len(dead)
    prim, k = is_primitive(np.maximum(entries, 0.0), edges)
    modulus, skipped = None, {}
    if prim and k is None:
        k = (n - 1) ** 2 + 1
        skipped["primitivity_exponent"] = f"Wielandt bound (N - 1)^2 + 1: over {FRONTIER_WORDS} bitset words"
    if n <= DENSE_CAP:
        modulus = second_modulus(validate_stochastic(edges.table.layout(entries, dead)))
        dobrushin = dobrushin_coefficient(entries, edges)
    else:
        skipped["second_modulus"] = f"dense eigenvalues are taken up to N = {DENSE_CAP}"
        dobrushin = 1.0  # exact at a disjoint pair of rows, else the upper bound
        if not _has_disjoint_rows(edges, dead):
            skipped["dobrushin"] = f"upper bound 1: every two rows meet, and the row scan is taken up to N = {DENSE_CAP}"
    # the least of the N^2 entries: 0 off a live row narrower than N, 1/N on a dead row
    live = entries[~dead]
    low = min(live.min(initial=np.inf), 0.0 if live.size and live.shape[1] < n else np.inf,
              1.0 / n if dead.any() else np.inf)
    return SpectralReport(prim, k, modulus, dobrushin, float(low), skipped)
