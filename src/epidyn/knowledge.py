"""Experience/concept spaces, knowledge functions and likelihood landscapes.

A knowledge setting couples a finite list of experience points with a concept
space that contains a distinguished zero concept (the origin).  An agent's
knowledge is a tabular map from experience indices to concept points; the zero
concept marks experiences the agent has never conceptualized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


class KnowledgeError(ValueError):
    """Raised when a setting, function or landscape violates its invariants."""


def _as_points(points, name: str) -> np.ndarray:
    problem = KnowledgeError(f"{name} must be a nonempty 2d array of points")
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise problem from None
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise problem
    if not np.isfinite(arr).all():
        raise KnowledgeError(f"{name} must be finite")
    return arr


def sorted_distinct(a) -> np.ndarray:
    """Distinct entries (1-D) or rows (2-D) of ``a`` in ascending order.

    A sort and one neighbour comparison, as ``np.unique`` does, without the
    ``numpy.ma`` import that ``np.unique`` costs a fresh process.
    """
    a = np.asarray(a)
    if len(a) == 0:
        return a
    s = np.sort(a) if a.ndim == 1 else a[np.lexsort(a.T[::-1])]
    step = s[1:] != s[:-1]
    if a.ndim == 2:
        step = step.any(axis=1)
    return s[np.concatenate(([True], step))]


@dataclass(frozen=True, eq=False)
class BoxConcepts:
    """Axis-aligned concept box containing the origin.

    ``lo`` and ``hi`` are length-l vectors with lo <= 0 <= hi componentwise.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise KnowledgeError("box bounds must be vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise KnowledgeError("box bounds must be finite")
        if not (np.all(lo <= 0.0) and np.all(hi >= 0.0)):
            raise KnowledgeError("concept box must contain the origin (lo <= 0 <= hi)")
        if not np.all(lo <= hi):
            raise KnowledgeError("box bounds must satisfy lo <= hi")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Componentwise membership test for an (n, l) array of points."""
        v = np.asarray(values, dtype=float)
        return np.all((v >= self.lo) & (v <= self.hi), axis=-1)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Nearest box point to each row of an (..., l) array: a clip (np.clip's method)."""
        return values.clip(self.lo, self.hi)

    def to_dict(self) -> dict:
        return {"type": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True, eq=False)
class DiscreteConcepts:
    """Finite labeled concept points; index 0 is the zero concept (origin)."""

    points: np.ndarray
    labels: Optional[tuple] = None

    def __init__(self, points, labels=None):
        pts = _as_points(points, "concept points")
        if not np.all(pts[0] == 0.0):
            raise KnowledgeError("concept point at index 0 must be the origin")
        if len(sorted_distinct(pts)) != len(pts):
            raise KnowledgeError("duplicate concept points")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(pts):
                raise KnowledgeError("one label per concept point required")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def _matches(self, values: np.ndarray) -> np.ndarray:
        # (n, n_concepts) exact equality of each row with each listed point
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        return np.all(v[:, None, :] == self.points[None, :, :], axis=-1)

    def index_of(self, values: np.ndarray) -> np.ndarray:
        """Map an (n, l) array of concept points to concept indices.

        Every row must match one of the listed points exactly.
        """
        eq = self._matches(values)
        if not eq.any(axis=1).all():
            raise KnowledgeError("value is not one of the listed concept points")
        return np.argmax(eq, axis=1)

    def contains(self, values: np.ndarray) -> np.ndarray:
        return self._matches(values).any(axis=1)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Nearest listed point to each row of an (..., l) array; exact ties
        go to the lowest concept index."""
        d2 = np.sum((values[..., None, :] - self.points) ** 2, axis=-1)
        return self.points[np.argmin(d2, axis=-1)]

    def to_dict(self) -> dict:
        doc = {"type": "discrete", "points": self.points.tolist()}
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc


ConceptSpace = Union[BoxConcepts, DiscreteConcepts]


def _entry(doc, key: str, what: str, convert=lambda v: np.asarray(v, dtype=float)):
    # doc[key] converted; a missing key or a value of the wrong type is a
    # KnowledgeError that names the key
    if not isinstance(doc, dict):
        raise KnowledgeError(f"{what} must be a mapping, got {type(doc).__name__}")
    if key not in doc:
        raise KnowledgeError(f"{what} needs the key {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as err:
        raise KnowledgeError(f"{what} key {key!r}: {err}") from None


def concepts_from_dict(doc: dict) -> ConceptSpace:
    kind = _entry(doc, "type", "concepts", str)
    if kind == "box":
        return BoxConcepts(_entry(doc, "lo", "box concepts"), _entry(doc, "hi", "box concepts"))
    if kind == "discrete":
        labels = doc.get("labels")
        if labels is not None:
            labels = _entry(doc, "labels", "discrete concepts", tuple)
        return DiscreteConcepts(_entry(doc, "points", "discrete concepts"), labels)
    raise KnowledgeError(f"unknown concept space type: {kind!r}")


@dataclass(frozen=True, eq=False)
class KnowledgeSetting:
    """Finite experience list plus a concept space with a zero concept."""

    experiences: np.ndarray
    concepts: ConceptSpace

    def __init__(self, experiences, concepts: ConceptSpace):
        exp = _as_points(experiences, "experiences")
        if len(sorted_distinct(exp)) != len(exp):
            raise KnowledgeError("duplicate experience points")
        exp.setflags(write=False)
        object.__setattr__(self, "experiences", exp)
        object.__setattr__(self, "concepts", concepts)

    @property
    def n_experiences(self) -> int:
        return self.experiences.shape[0]

    @property
    def concept_dim(self) -> int:
        return self.concepts.dim

    def check_values(self, values: np.ndarray, lead: tuple = ()) -> None:
        """Raise KnowledgeError unless ``values`` is a ``lead`` + (n_experiences,
        l) array of points in the concept space."""
        shape = tuple(lead) + (self.n_experiences, self.concept_dim)
        if values.shape != shape:
            raise KnowledgeError(f"values must have shape {shape}, got {values.shape}")
        if not self.concepts.contains(values.reshape(-1, self.concept_dim)).all():
            raise KnowledgeError("values must lie in the concept space")

    def to_dict(self) -> dict:
        return {
            "experiences": self.experiences.tolist(),
            "concepts": self.concepts.to_dict(),
        }


def setting_from_dict(doc: dict) -> KnowledgeSetting:
    return KnowledgeSetting(doc["experiences"], concepts_from_dict(doc["concepts"]))


def grid_setting(n: int, lo: float = -10.0, hi: float = 10.0) -> KnowledgeSetting:
    """Setting with experiences 1..n and a scalar concept box [lo, hi]."""
    return KnowledgeSetting(
        np.arange(1.0, n + 1.0)[:, None], BoxConcepts([lo], [hi])
    )


@dataclass(frozen=True, eq=False)
class KnowledgeFunction:
    """Tabular map from experience indices to concept points."""

    setting: KnowledgeSetting
    values: np.ndarray

    def __init__(self, setting: KnowledgeSetting, values):
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        setting.check_values(v)
        v.setflags(write=False)
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "values", v)

    def evaluate(self, e: int) -> np.ndarray:
        """Concept point assigned to experience index ``e``."""
        if not 0 <= e < self.setting.n_experiences:
            raise IndexError(f"experience index {e} out of range")
        return self.values[e]

    def conceptualizes(self, e: int) -> bool:
        """True iff the value at ``e`` differs from the zero concept."""
        return bool(np.any(self.evaluate(e) != 0.0))

    @classmethod
    def _trusted(cls, setting: KnowledgeSetting, values: np.ndarray) -> "KnowledgeFunction":
        # Skips membership validation; callers must guarantee the values
        # already lie in the concept space (clipped or selected from it).
        self = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(self, "setting", setting)
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def constant(cls, setting: KnowledgeSetting, point) -> "KnowledgeFunction":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(setting, np.tile(point, (setting.n_experiences, 1)))

    @classmethod
    def zero(cls, setting: KnowledgeSetting) -> "KnowledgeFunction":
        return cls(setting, np.zeros((setting.n_experiences, setting.concept_dim)))

    def to_dict(self) -> dict:
        doc = self.setting.to_dict()
        doc["values"] = self.values.tolist()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def function_from_dict(doc: dict) -> KnowledgeFunction:
    return KnowledgeFunction(setting_from_dict(doc), doc["values"])


def function_from_json(text: str) -> KnowledgeFunction:
    return function_from_dict(json.loads(text))


def usage_penalty(values: np.ndarray, concepts: ConceptSpace) -> float:
    """Concept-variety penalty on a raw (n, l) table of concept points."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    nonzero = v[np.any(v != 0.0, axis=-1)]
    if len(nonzero) == 0:
        return 0.0
    distinct = sorted_distinct(nonzero)
    if isinstance(concepts, DiscreteConcepts):
        return float(max(len(distinct) - 1, 0))
    if len(distinct) <= 1:
        return 0.0
    if concepts.dim == 1:
        return float(distinct.max() - distinct.min())
    return _hull_measure(distinct)


def _hull_measure(points: np.ndarray) -> float:
    # Degenerate point sets (fewer than dim+1 points, or affinely dependent)
    # span a zero-measure hull.
    from scipy.spatial import ConvexHull, QhullError

    if len(points) <= points.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


def knowledge_distance(f: KnowledgeFunction, g: KnowledgeFunction) -> float:
    """Euclidean distance between two tabular functions.

    sqrt of the sum over experiences of the squared concept-point distance.
    """
    if f.values.shape != g.values.shape:
        raise KnowledgeError("functions live on different settings")
    return float(np.linalg.norm(f.values - g.values))


class LikelihoodLandscape:
    """How well a concept explains an experience, as a value in [0, 1].

    Each landscape defines one evaluation, ``per_population(setting,
    values, support=None)``, mapping any (..., n_experiences, l) stack of
    value tables to the (..., n_experiences) likelihoods
    L(e, values[..., e, :]); ``support``, the stack's nonzero mask over l,
    may come computed.  Every landscape returns exactly 1/2 at the zero
    concept.
    """

    def check_setting(self, setting: KnowledgeSetting) -> None:
        """Raise KnowledgeError unless the landscape can score ``setting``."""


class ConstantLikelihood(LikelihoodLandscape):
    """L(e, c) = v for every nonzero concept."""

    def __init__(self, value: float = 1.0):
        if not 0.0 <= value <= 1.0:
            raise KnowledgeError("constant likelihood must lie in [0, 1]")
        self.value = float(value)

    def per_population(self, setting, values, support=None):
        if support is None:
            support = np.any(np.asarray(values, dtype=float) != 0.0, axis=-1)
        return np.where(support, self.value, 0.5)

    def to_dict(self) -> dict:
        return {"variant": "constant", "value": self.value}


class GaussianPeakLikelihood(LikelihoodLandscape):
    """L(e, c) = exp(-||c - center||^2 / width) for nonzero concepts."""

    def __init__(self, center, width: float):
        width = float(width)
        if not 0.0 < width < np.inf:
            raise KnowledgeError("peak width must be positive and finite")
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not np.all(np.isfinite(center)):
            raise KnowledgeError("peak center must be finite")
        self.center = center
        self.width = width

    def check_setting(self, setting):
        if self.center.shape != (setting.concept_dim,):
            raise KnowledgeError(
                f"peak center has {len(self.center)} coordinates in a "
                f"{setting.concept_dim}-dimensional concept space"
            )

    def per_population(self, setting, values, support=None):
        v = np.asarray(values, dtype=float)
        # plain reductions: np.sum and np.any cost more in wrappers than in work here
        if support is None:
            support = np.logical_or.reduce(v != 0.0, axis=-1)
        d2 = np.add.reduce((v - self.center) ** 2, axis=-1)
        out = np.exp(-d2 / self.width)
        out[~support] = 0.5
        return out

    def to_dict(self) -> dict:
        return {
            "variant": "gaussian-peak",
            "center": self.center.tolist(),
            "width": self.width,
        }


class TabularLikelihood(LikelihoodLandscape):
    """Dense (n_experiences, n_concepts) table for discrete concept spaces."""

    def __init__(self, table):
        tab = np.asarray(table, dtype=float)
        if tab.ndim != 2:
            raise KnowledgeError("likelihood table must be 2d")
        if not np.all((tab >= 0.0) & (tab <= 1.0)):
            raise KnowledgeError("likelihood values must lie in [0, 1]")
        tab = tab.copy()
        tab[:, 0] = 0.5
        tab.setflags(write=False)
        self.table = tab

    def check_setting(self, setting):
        if not isinstance(setting.concepts, DiscreteConcepts):
            raise KnowledgeError("a tabular likelihood needs a discrete concept space")
        expected = (setting.n_experiences, len(setting.concepts))
        if self.table.shape != expected:
            raise KnowledgeError(
                f"likelihood table must be {expected[0]}x{expected[1]} "
                f"(experiences x concepts), got {self.table.shape}"
            )

    def per_population(self, setting, values, support=None):
        v = np.asarray(values, dtype=float)
        idx = setting.concepts.index_of(v.reshape(-1, v.shape[-1])).reshape(v.shape[:-1])
        return self.table[np.arange(v.shape[-2]), idx]

    def to_dict(self) -> dict:
        return {"variant": "tabular", "table": self.table.tolist()}


def landscape_from_dict(doc: dict) -> LikelihoodLandscape:
    variant = _entry(doc, "variant", "likelihood", str)
    what = f"{variant} likelihood"
    if variant == "constant":
        return ConstantLikelihood(_entry(doc, "value", what, float) if "value" in doc else 1.0)
    if variant == "gaussian-peak":
        return GaussianPeakLikelihood(_entry(doc, "center", what), _entry(doc, "width", what, float))
    if variant == "tabular":
        return TabularLikelihood(_entry(doc, "table", what))
    raise KnowledgeError(f"unknown likelihood variant: {variant!r}")
