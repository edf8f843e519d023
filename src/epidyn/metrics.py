"""Convergence functionals and the per-step metric trace.

Two population-to-consensus distances are recorded side by side: the exact
Euclidean projection onto the consensus diagonal, and the nearest-individual
form that matches the published trajectories.  The plotted default is the
nearest-individual variant; the projection is always co-recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

TRACE_COLUMNS = ("t", "replicate", "d_consensus", "d_nearest", "relative_entropy")


def _value_tensor(state) -> np.ndarray:
    # Accepts a PopulationState or a plain (N, E, l) array.
    values = getattr(state, "values", state)
    return np.asarray(values, dtype=float)


def consensus_distance(state) -> float:
    """Exact Euclidean distance to the set of shared-knowledge states.

    The projection of a population onto that set assigns every agent the
    across-agent mean function.
    """
    return float(_distances(_value_tensor(state))[0])


def nearest_individual_distance(state) -> float:
    """Distance to the nearest constant tuple built from one agent's own
    function: min over j of sqrt(sum_i d(k_i, k_j)^2)."""
    return float(_distances(_value_tensor(state))[1])


def _distances(values: np.ndarray):
    """:func:`consensus_distance` and :func:`nearest_individual_distance`
    of each population of an (..., N, E, l) stack, as two arrays of the
    leading shape, with the same bits for a population alone or in a stack.

    Each population is centred once.  ``d_consensus`` is the norm of that
    array: a stacked matmul of each flattened population with itself is
    the BLAS dot that ``np.linalg.norm`` takes.  The nearest individual,
    the agent closest to the mean, is found from one batched einsum of the
    per-agent sums.  Its total is summed from its own differences, exactly
    zero at consensus, one population at a time: an einsum over more than
    8192 entries blocks by its operands' shape, so a batched sum would
    round a large population's total differently.
    """
    lead = values.shape[:-3]
    stack = values.reshape((-1,) + values.shape[-3:])
    count = len(stack)
    centred = stack - stack.mean(axis=1, keepdims=True)
    flat = centred.reshape(count, 1, -1)
    consensus = np.matmul(flat, flat.transpose(0, 2, 1)).reshape(count)
    nearest = np.einsum("piel,piel->pi", centred, centred).argmin(axis=1)
    del centred, flat  # spent: not held beside the differences
    diffs = (stack - stack[np.arange(count), nearest][:, None]).reshape(count, -1)
    totals = np.array([np.einsum("n,n->", d, d) for d in diffs])
    return np.sqrt(consensus).reshape(lead), np.sqrt(totals).reshape(lead)


def relative_entropy(state, target) -> float:
    """Nonpositive closeness score of the population to a target function
    (one per population of an (R, N, E, l) stack).

    Minus the population mean of the per-agent root-mean-square deviation
    from the target over experiences; zero exactly when every agent equals
    the target.  (Sign convention of the source model, not the
    information-theoretic quantity.)
    """
    V = _value_tensor(state)
    g = np.asarray(getattr(target, "values", target), dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    per_agent = np.sqrt(np.sum((V - g) ** 2, axis=(-2, -1)) / V.shape[-2])
    return -per_agent.mean(axis=-1)


@dataclass(frozen=True, eq=False)
class MetricTrace:
    """Per-step metric records across replicates.

    ``grid`` is the (replicates, recorded steps, 5) array a run records,
    replicate r in ``grid[r]``, with columns t, replicate, d_consensus,
    d_nearest, relative_entropy.  ``rows`` is its replicate-major
    (replicates * steps, 5) view, one row per (replicate, t).
    """

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 3 or grid.shape[2] != len(TRACE_COLUMNS) or grid.size == 0:
            raise ValueError(f"a trace is a nonempty (replicates, steps, 5) grid, not {grid.shape}")
        object.__setattr__(self, "grid", grid)

    @property
    def rows(self) -> np.ndarray:
        return self.grid.reshape(-1, len(TRACE_COLUMNS))

    @property
    def times(self) -> np.ndarray:
        return self.grid[0, :, 0].astype(int)

    @property
    def n_replicates(self) -> int:
        return len(self.grid)

    def replicate(self, r: int) -> np.ndarray:
        return self.grid[r]

    def mean_rows(self) -> np.ndarray:
        """Per-t averages over replicates: columns t, d_consensus, d_nearest,
        relative_entropy.  Each average adds the replicates in order."""
        out = np.empty((self.grid.shape[1], 4))
        out[:, 0] = self.grid[0, :, 0]
        out[:, 1:] = self.grid[:, :, 2:].mean(axis=0)
        return out

    def mean_column(self, name: str) -> np.ndarray:
        idx = {"d_consensus": 1, "d_nearest": 2, "relative_entropy": 3}[name]
        return self.mean_rows()[:, idx]

    def to_csv(self, path) -> None:
        _write_csv(path, TRACE_COLUMNS, self.rows, int_cols=(0, 1))

    def mean_to_csv(self, path) -> None:
        header = ("t", "d_consensus", "d_nearest", "relative_entropy")
        _write_csv(path, header, self.mean_rows(), int_cols=(0,))


def _write_csv(path, header, rows, int_cols=()) -> None:
    # one format per row: %d truncates like int(), %.17g round-trips a float
    line = ",".join("%d" if k in int_cols else "%.17g" for k in range(len(header))) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in np.asarray(rows).tolist())


def trace_record(t, replicate, state, re_target: Optional[np.ndarray]) -> np.ndarray:
    """Trace rows of (..., N, E, l) values, or of a state: one (5,) row
    for one population, (..., 5) rows for a stack.  ``t`` and
    ``replicate`` broadcast against the leading axes; a run passes a block
    of steps of an (R, N, E, l) stack as (steps, R, N, E, l) values, its
    times as a (steps, 1) column and its R replicate indices.

    ``d_consensus`` and ``d_nearest`` are those of :func:`_distances`,
    whose sums round alike for a population alone or in any stack.
    """
    V = _value_tensor(state)
    rows = np.empty(V.shape[:-3] + (len(TRACE_COLUMNS),))
    rows[..., 0] = t
    rows[..., 1] = replicate
    rows[..., 2], rows[..., 3] = _distances(V)
    rows[..., 4] = np.nan if re_target is None else relative_entropy(V, re_target)
    return rows
