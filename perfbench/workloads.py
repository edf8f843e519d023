"""Seeded workload generator.

Each workload is a plain epidyn config document built from the workload
seed alone: the same seed gives the same bytes.  Only the standard library
is used, so the generated inputs do not depend on the numpy version under
test.  The seed also becomes the config's own ``seed`` field, which drives
the simulator's Philox streams.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("creation", "crowd", "naming")

# Sizes chosen so that a timed run holds many samples of each metric
# (creation: under a second per `epidyn run`; crowd and naming: a few
# seconds); see perfbench/README.md for the reasoning.
CREATION = {"agents": 10, "experiences": 25, "replicates": 2, "horizon": 200}
CROWD = {"agents": 400, "experiences": 25, "neighbours": 8, "horizon": 10}
NAMING = {"agents": 60, "colours": 5, "horizon": 10}

WAVELENGTHS = [380.0 + 10.0 * k for k in range(63)]  # 380 .. 1000 nm


def _grid(n: int) -> list:
    return [[float(k)] for k in range(1, n + 1)]


def _box() -> dict:
    return {"type": "box", "lo": [-10.0], "hi": [10.0]}


def creation(seed: int) -> dict:
    """The test3-creation preset at a benchmark-sized horizon."""
    n, e = CREATION["agents"], CREATION["experiences"]
    return {
        "name": "bench-creation",
        "tau": 0.02,
        "sample_size": 20,
        "sigma_e": 1.0,
        "sigma_c": 0.1,
        "c_min": 0.0,
        "horizon": CREATION["horizon"],
        "replicates": CREATION["replicates"],
        "seed": seed,
        "metric_variant": "nearest-individual",
        "drop_zero_social": False,
        "gamma": [[1.0] * n for _ in range(n)],
        "likelihood": {"variant": "gaussian-peak", "center": [1.0], "width": 1.0},
        "experiences": _grid(e),
        "concepts": _box(),
        "initial": [[[0.0] for _ in range(e)] for _ in range(n)],
        "re_target": [[1.0] for _ in range(e)],
    }


def ring_lattice(n: int, k: int) -> list:
    """Each agent is influenced by itself and its k nearest neighbours on
    each side of a ring."""
    gamma = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for d in range(-k, k + 1):
            gamma[i][(i + d) % n] = 1.0
    return gamma


def crowd(seed: int) -> dict:
    """A large sparsely connected population under the professor preset's
    concept peak, with tables drawn uniformly over the concept box."""
    rng = random.Random(f"crowd:{seed}")
    n, e = CROWD["agents"], CROWD["experiences"]
    initial = [[[rng.uniform(-10.0, 10.0)] for _ in range(e)] for _ in range(n)]
    return {
        "name": "bench-crowd",
        "tau": 0.0,
        "sample_size": 50,
        "c_min": 0.0,
        "horizon": CROWD["horizon"],
        "replicates": 1,
        "seed": seed,
        "metric_variant": "consensus-projection",
        "gamma": ring_lattice(n, CROWD["neighbours"]),
        "likelihood": {"variant": "gaussian-peak", "center": [6.0], "width": 10.0},
        "experiences": _grid(e),
        "concepts": _box(),
        "initial": initial,
    }


def vocabulary(rng: random.Random, n_colours: int) -> list:
    """One speaker's colour terms: ordered bands with random edges over the
    visible range, unnamed (zero) outside it and in a few random gaps."""
    edges = sorted(rng.uniform(380.0, 750.0) for _ in range(n_colours - 1))
    top = rng.uniform(650.0, 800.0)
    table = []
    for w in WAVELENGTHS:
        term = 1 + sum(w >= edge for edge in edges)
        if w >= top or rng.random() < 0.1:
            term = 0
        table.append([float(term)])
    return table


def naming(seed: int) -> dict:
    """Speakers of a fully connected community negotiating colour terms over
    wavelength buckets (modelled on demos/color_naming.py)."""
    rng = random.Random(f"naming:{seed}")
    n, k = NAMING["agents"], NAMING["colours"]
    table = [[round(rng.uniform(0.6, 1.0), 6) for _ in range(k + 1)] for _ in WAVELENGTHS]
    return {
        "name": "bench-naming",
        "tau": 0.05,
        "sample_size": 50,
        "c_min": 1e-6,
        "horizon": NAMING["horizon"],
        "replicates": 1,
        "seed": seed,
        "metric_variant": "consensus-projection",
        "gamma": [[1.0] * n for _ in range(n)],
        "likelihood": {"variant": "tabular", "table": table},
        "experiences": [[w] for w in WAVELENGTHS],
        "concepts": {
            "type": "discrete",
            "points": [[float(c)] for c in range(k + 1)],
            "labels": ["none", "purple", "blue", "green", "yellow", "red"][: k + 1],
        },
        "initial": [vocabulary(rng, k) for _ in range(n)],
    }


GENERATORS = {"creation": creation, "crowd": crowd, "naming": naming}


def generate(name: str, seed: int) -> dict:
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return GENERATORS[name](seed)


def config_bytes(name: str, seed: int) -> bytes:
    return (json.dumps(generate(name, seed), sort_keys=True) + "\n").encode()


def shape(doc: dict) -> dict:
    """The work a config asks for, as the checker and the metrics need it."""
    return {
        "agents": len(doc["initial"]),
        "experiences": len(doc["experiences"]),
        "horizon": doc["horizon"],
        "replicates": doc["replicates"],
        "has_target": "re_target" in doc,
    }
