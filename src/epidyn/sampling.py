"""The random side of sampling: the agents' streams and the search of the
learning rows for the agents that social observations copy.

Each (replicate, agent) pair has its own counter-based Philox stream, keyed
as by SeedSequence(seed, spawn_key=(replicate, agent)); the keys of a
replicate come from one vectorized pass of SeedSequence's hash.  A run
reads each stream once per chunk of steps (:class:`ReadAhead`).  A social
observation of agent a copies agent j with probability lambda_aj, found by
one branchless binary search of all the streams' queries at once.  The
learning rows come as their entries on the structure's column table
(:func:`support_table`), and each row is searched on its support only.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple, Optional, Sequence

import numpy as np


def agent_streams(seed: int, replicate: int, n_agents: int) -> list:
    """One independent Philox generator per agent, keyed as by
    SeedSequence(seed, spawn_key=(replicate, agent)).

    The N keys come from one vectorized pass of SeedSequence's hash (see
    :func:`philox_keys`), and each generator's ``bit_generator.seed_seq``
    is a :class:`PhiloxKey` holding its key instead of the SeedSequence.
    The counter starts at zero, as with ``counter=None``, but comes as one
    shared array, which Philox copies without converting an int.
    """
    generator, philox = _philox()
    counter = np.zeros(4, np.uint64)
    return [
        generator(philox(PhiloxKey(key), counter=counter))
        for key in philox_keys(seed, replicate, n_agents)
    ]


@functools.cache
def _philox():
    # numpy.random costs about 15 ms to import, so it waits for the first run
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(PhiloxKey)
    return Generator, Philox


class PhiloxKey:
    """Stands in for the SeedSequence of one stream: Philox asks it for a
    two-word uint64 key, the only state it generates."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key holder generates two uint64 words only")
        return self.key


# the constants of numpy's SeedSequence hash (pool size 4)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def philox_keys(seed: int, replicate: int, n_agents: int) -> np.ndarray:
    """(n_agents, 2) uint64 keys, row a equal to
    SeedSequence(seed, spawn_key=(replicate, a)).generate_state(2, uint64).

    The entropy words are the seed's (zero-padded to the pool size), the
    replicate's and the agent's; only the last differs between agents.  So
    the hash runs once on Python ints, and on a uint32 array of all agents
    from the agent's word on.  Each helper works on either, masking to 32
    bits where Python ints would grow.
    """
    words = _uint32_words(seed)
    words += [0] * (4 - len(words)) + _uint32_words(replicate)
    words.append(np.arange(n_agents, dtype=np.uint32))
    const, pool = _INIT_A, []
    for word in words[:4]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state: four uint32 words, read in pairs as little-endian uint64
    const, state = _INIT_B, []
    for word in pool:
        value, const = _hashmix(word, const, _MULT_B)
        state.append(value.astype(np.uint64))
    shift = np.uint64(32)
    return np.stack([state[0] | state[1] << shift, state[2] | state[3] << shift], axis=-1)


def _uint32_words(n: int) -> list:
    # SeedSequence's little-endian 32-bit words of a nonnegative integer
    n, words = operator.index(n), []
    if n < 0:
        raise ValueError("expected non-negative integer")
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    # SeedSequence's hashmix: the mixed value and the next hash constant
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def uniforms(rngs, size: int) -> np.ndarray:
    """(len(rngs), size) uniforms, the next ``size`` of each stream: the
    next block of a read-ahead, or one read of each generator of a list."""
    if not isinstance(rngs, ReadAhead):
        rngs = ReadAhead(rngs, 1)
    return rngs.take(size)


# Bounds on the floats a run reads ahead from its streams at once: 8 MiB
# over all streams, and 16 KiB of whole steps per stream.
READ_AHEAD_FLOATS = 1 << 20
STREAM_AHEAD_FLOATS = 1 << 11


class ReadAhead:
    """The generators of a run of ``steps`` steps, each read once per chunk
    of steps: one read of K * B uniforms gives what K reads of B would, so
    a step takes its (S, B) block from the chunk.  A chunk holds at most
    ``READ_AHEAD_FLOATS`` floats over all streams and
    ``STREAM_AHEAD_FLOATS`` per stream, or one step's block if that is
    more.  The buffer is reused from chunk to chunk, but a one-step chunk
    is let go with its block, so that it is not held through the next step.
    """

    def __init__(self, generators: Sequence, steps: int):
        self.generators = list(generators)
        self.steps = steps
        self.buffer = self.chunk = self.spent = np.empty((len(self.generators), 0))
        self.used = 0

    def __len__(self) -> int:
        return len(self.generators)

    def take(self, size: int) -> np.ndarray:
        if self.used == self.chunk.shape[1]:
            per_chunk = min(READ_AHEAD_FLOATS // (len(self) * size), STREAM_AHEAD_FLOATS // size)
            count = max(1, min(self.steps, per_chunk))
            self.steps -= count
            if self.buffer.shape[1] < count * size:
                self.buffer = np.empty((len(self), count * size))
            self.chunk = self.buffer[:, : count * size]
            for row, rng in zip(self.chunk, self.generators):
                rng.random(out=row)
            self.used = 0
        block = self.chunk[:, self.used : self.used + size]
        self.used += size
        if self.chunk.shape[1] == size:
            self.buffer = self.chunk = self.spent
            self.used = 0
        return block


def search_rows(cumulative: np.ndarray, u: np.ndarray, start=None) -> np.ndarray:
    """Right-side searchsorted of each query u[s, q] in the nondecreasing
    row ``cumulative[s]``: the count of entries <= the query, in [0, width].

    One branchless binary search for all rows at once: every query keeps
    the range [pos, pos + n] that holds its answer, and halves it by one
    comparison at the same offset ``half`` of its own row.  ``start``, the
    (rows, 1) flat offsets of the rows, may come built once for many
    searches (see :func:`stream_offsets`).
    """
    rows, width = cumulative.shape
    flat = cumulative.reshape(-1)
    if start is None:
        start = np.arange(0, rows * width, width)[:, None]
    pos = np.repeat(start, u.shape[1], axis=1)
    below = np.empty(u.shape, dtype=bool)
    n = width
    while n > 1:
        half = n // 2
        # flat[half:] at pos is the entry at offset half from pos; once
        # compared, its buffer takes the steps the comparisons decide
        entry = flat[half:].take(pos)
        np.less_equal(entry, u, out=below)
        steps = entry.view(np.intp)
        np.copyto(steps, below)  # a cast with no ufunc buffer
        steps *= half
        pos += steps
        del entry, steps  # not held through the next round's take
        n -= half
    np.less_equal(flat.take(pos), u, out=below)
    pos += below
    pos -= start
    return pos


class SupportTable(NamedTuple):
    """The structure's column table: row i lists the j with gamma_ij > 0 in
    order, padded to the widest row's degree k with an agent off row i's
    support, where the structure is 0.

    ``agents`` (N, k) holds the agent j of each entry and ``gather`` its
    flat index i * N + j, ``own`` the flat positions of the entries (i, i),
    and ``columns`` (N, k + 1) the agents again for the source search,
    padded with N - 1, plus one more N - 1 for a query above the whole row.
    A :attr:`full` table, N wide because some row covers more than N / 2
    agents, is the row layout itself, each row padded with its own zero
    entries in place, and holds no (N, N) index array: ``agents`` is a
    broadcast view, ``gather`` None and ``columns`` one row for all agents.
    :meth:`entries` tells the two layouts apart.
    """

    agents: np.ndarray
    gather: Optional[np.ndarray]
    own: np.ndarray
    columns: np.ndarray

    @classmethod
    def complete(cls, n: int) -> "SupportTable":
        """The table of the complete structure of ``n`` agents: the full
        table of every structure that has a row wider than ``n`` / 2."""
        agents = np.broadcast_to(np.arange(n), (n, n))
        columns = np.minimum(np.arange(n + 1), n - 1)[None]
        return cls(agents, None, np.arange(n) * (n + 1), columns)

    @property
    def full(self) -> bool:
        return self.gather is None

    def entries(self, matrices: np.ndarray, owner=None, out=None) -> np.ndarray:
        """The (..., N, k) entries on the table of (..., N, N) ``matrices``
        (the matrices themselves for a full table), or, with an (..., N)
        ``owner``, of the matrices whose row i is ``matrices[owner[..., i]]``,
        gathered into ``out`` if given."""
        if self.full:
            return matrices if owner is None else matrices.take(owner, axis=0, out=out)
        n = len(self.agents)
        if owner is None:
            return matrices.reshape(matrices.shape[:-2] + (n * n,)).take(self.gather, axis=-1)
        return matrices.take(owner[..., None] * n + self.agents, out=out)

    def layout(self, entries: np.ndarray, dead: np.ndarray, out=None) -> np.ndarray:
        """The (..., N, N) matrices of (..., N, k) ``entries`` that are 0 in
        a row's padding, 0 off the table and a row of the (..., N) mask
        ``dead`` the uniform row 1/N, written to ``out`` if given."""
        n = len(self.agents)
        out = np.empty(entries.shape[:-1] + (n,)) if out is None else out
        if self.full:
            np.copyto(out, entries)
        else:
            out.fill(0.0)
            out.reshape(out.shape[:-2] + (n * n,))[..., self.gather] = entries
        out[dead] = 1.0 / n
        return out


def support_table(structure: np.ndarray) -> SupportTable:
    """The structure's :class:`SupportTable`, built once per run."""
    n = len(structure)
    support = structure > 0.0
    degree = np.count_nonzero(support, axis=1)
    width = int(degree.max())
    if 2 * width > n:
        return SupportTable.complete(n)
    width = max(width, 1)
    rows, cols = np.divmod(np.flatnonzero(support), n)
    slots = np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows]
    columns = np.full((n, width + 1), n - 1, dtype=np.intp)
    columns[rows, slots] = cols
    # a row with padding is narrower than N, so it has an agent off its support
    agents = np.repeat(support.argmin(axis=1)[:, None], width, axis=1)
    agents[rows, slots] = cols
    gather = agents + n * np.arange(n)[:, None]
    own = np.flatnonzero(agents == np.arange(n)[:, None])
    return SupportTable(agents, gather, own, columns)


def stream_offsets(n_streams: int, table: SupportTable):
    """The offsets that every source search of ``n_streams`` streams on
    ``table`` shares, each (S, 1), S = R * N: the flat offset of each
    stream's row of cumulative sums, the flat index r * N of its
    population, and the flat offset of its row of the table's columns."""
    n, width = table.agents.shape
    agents = np.arange(n_streams)[:, None]
    return agents * width, agents - agents % n, agents % len(table.columns) * (width + 1)


def pick_sources(
    learning: np.ndarray, u: np.ndarray, table: SupportTable, offsets=None
) -> np.ndarray:
    """Source of every social slot of an (R, N, k) stack of learning rows
    on the structure's ``table`` (see
    :func:`epidyn.influence.compute_social_learning`): slot q of stream
    s = r * N + a takes agent j of population r with probability
    lambda_aj, j being the right-side searchsorted position of u[s, q] in
    row a's cumulative sums over all N agents, clipped to N - 1.  Returns
    the flat indices r * N + j.  ``offsets``, the streams'
    :func:`stream_offsets`, may come built once for a run's steps.

    The cumulative sums are taken on the table, in place.  Zeros add
    nothing to a sequential sum, so these are the same bits as in the full
    row, and the first entry above a query is a strict increase, so it lies
    on the support: the search finds the same agent.  A dead row, all zero
    on the table and uniform 1/N over all N agents, is searched in full.
    """
    n, width = table.agents.shape
    if offsets is None:
        offsets = stream_offsets(u.shape[0], table)
    start, base, columns = offsets
    cumulative = learning.reshape(-1, width)
    np.cumsum(cumulative, axis=-1, out=cumulative)
    u = np.ascontiguousarray(u)  # the search reads the queries once a round
    picked = search_rows(cumulative, u, start)
    picked += columns
    picked = table.columns.take(picked)
    dead = np.flatnonzero(cumulative[:, -1] == 0.0)
    if len(dead):
        uniform = np.cumsum(np.full((len(dead), n), 1.0 / n), axis=-1)
        picked[dead] = np.minimum(search_rows(uniform, u[dead]), n - 1)
    picked += base
    return picked
