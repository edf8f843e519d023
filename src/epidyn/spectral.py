"""Graph and spectral diagnostics for influence matrices.

Primitivity, communication, contraction coefficients, and the sample-size
calculator that turns the concentration bound into a concrete draw count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Optional, Tuple

import numpy as np

from .influence import MatrixError, normalize_rows, validate_stochastic
from .knowledge import BoxConcepts, KnowledgeSetting


class BoundInapplicableError(ValueError):
    """The closed-form entry bound does not apply to these inputs."""


def communicates(A, i: int, j: int) -> bool:
    """True iff a directed path of length >= 1 through strictly positive
    entries leads from i to j."""
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"agent index out of range for size {n}")
    adj = M > 0.0
    frontier = adj[i].copy()
    reached = frontier.copy()
    while frontier.any():
        if reached[j]:
            return True
        frontier = adj[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached[j])


def is_primitive(A) -> Tuple[bool, Optional[int]]:
    """Whether some power of the nonnegative matrix is strictly positive.

    Returns the first exponent k with A^k > 0, or (False, None) when no power
    up to the Wielandt bound (N-1)^2 + 1 is positive.  The 0/1 pattern is
    squared repeatedly until a power 2^s is positive, then the exact exponent
    is found by binary lifting over the stored squares.  Lifting is sound
    because positivity is monotone: A^k > 0 leaves A without a zero row, so
    A^(k+1) = A A^k > 0.  The patterns are float32 so that products run on
    BLAS; their entries count paths, at most N < 2^24, and are exact.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MatrixError("matrix must be square")
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
    # A^(2^(s-1)) is not positive: grow the largest non-positive power k.
    k, power = 0, None
    for s in range(len(squares) - 2, -1, -1):
        candidate = squares[s] if power is None else (power @ squares[s] > 0.0)
        if not candidate.all():
            k, power = k + 2**s, candidate.astype(np.float32)
    return True, k + 1


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


def dobrushin_coefficient(A) -> float:
    """Contraction coefficient of a row-stochastic matrix on the max-spread
    seminorm max_{i,j} |x_i - x_j|: half the largest L1 distance between rows.

    Two rows with disjoint supports are at distance 2, so the coefficient is
    exactly 1.  The 0/1 overlap product S S^T decides that at once: its
    entries count shared support columns, at most N < 2^24, and are exact in
    float32.  Otherwise row i is compared with rows i.. in one reused N x N
    buffer instead of an N^3 pairwise tensor.  Each distance is still summed
    along the last axis, and |x - y| = |y - x| exactly, so that result
    matches the full tensor to the bit.
    """
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
    """Summary of the contraction diagnostics of a learning matrix."""

    is_primitive: bool
    primitivity_exponent: Optional[int]
    second_modulus: float
    dobrushin: float
    min_entry: float

    def to_dict(self) -> dict:
        return asdict(self)


def analyze(A) -> SpectralReport:
    """Spectral report for a row-stochastic matrix.

    Validation admits entries down to -tol; primitivity reads them as the
    zero edges they round from.
    """
    M = validate_stochastic(A)
    prim, k = is_primitive(np.maximum(M, 0.0))
    return SpectralReport(
        is_primitive=prim,
        primitivity_exponent=k,
        second_modulus=second_modulus(M),
        dobrushin=dobrushin_coefficient(M),
        min_entry=float(M.min()),
    )
