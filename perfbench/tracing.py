"""Spans around the calls between epidyn's layers.

The hooks replace module and class attributes, that is, the names that
``cli.main``, ``experiments.run_experiment``, ``dynamics.run`` and
``dynamics.step`` look up when they call into the next layer.  The traced
run therefore follows the program's own call path.  A hook whose target is
missing is recorded as missing, and the metrics that depend on it are then
absent from the report rather than zero.

Spans are kept in memory as plain dicts and written out once, at the end.
"""

from __future__ import annotations

import math
import time
import tracemalloc

# (module, owner attribute or None, function, span name)
HOOKS = (
    ("cli", None, "main", "cli.main"),
    ("cli", None, "run_experiment", "experiments.run_experiment"),
    ("experiments", None, "load_config", "experiments.load_config"),
    ("experiments", None, "run", "dynamics.run"),
    ("experiments", None, "build_manifest", "experiments.build_manifest"),
    ("experiments", None, "summarize", "experiments.summarize"),
    ("dynamics", None, "_run_replicate", "dynamics.replicate"),
    ("dynamics", None, "step", "dynamics.step"),
    ("dynamics", None, "credibility_from_values", "influence.credibility"),
    ("dynamics", None, "compute_social_learning", "influence.learning"),
    ("dynamics", None, "draw_sample", "dynamics.draw_sample"),
    ("dynamics", None, "trace_record", "metrics.trace_record"),
    ("metrics", "MetricTrace", "mean_rows", "metrics.mean_rows"),
    ("metrics", "MetricTrace", "to_csv", "metrics.to_csv"),
    ("metrics", "MetricTrace", "mean_to_csv", "metrics.mean_to_csv"),
    ("spectral", None, "analyze", "spectral.analyze"),
    ("spectral", None, "is_primitive", "spectral.is_primitive"),
    ("spectral", None, "dobrushin_coefficient", "spectral.dobrushin"),
    ("spectral", None, "second_modulus", "spectral.second_modulus"),
)


class Tracer:
    """Records nested spans.  ``run`` and ``replicate`` label every span
    opened while they are set."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.run = None
        self.replicate = None
        self._stack = []
        self._restore = []

    def wrap(self, owner, attr, name, before=None, after=None, around=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args)`` runs before the span opens; ``after(span, args,
        result)`` may attach counts to the span once its end time is taken;
        ``around(span)`` is a context manager entered inside the timed
        interval.
        """
        target = getattr(owner, attr, None)
        if not callable(target):
            self.missing.append(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "run": tracer.run,
                "replicate": tracer.replicate,
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                if around is None:
                    result = target(*args, **kwargs)
                else:
                    with around(span):
                        result = target(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        self._restore.append((owner, attr, owner.__dict__.get(attr, target)))
        setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class _PeakMemory:
    """Records the tracemalloc peak of the wrapped call on its span."""

    def __init__(self, span):
        self.span = span

    def __enter__(self):
        tracemalloc.start()
        tracemalloc.reset_peak()

    def __exit__(self, *exc):
        self.span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return False


def install(tracer: Tracer) -> None:
    """Wrap every hook target in the ``epidyn`` package."""
    import importlib

    import numpy as np

    modules = {}
    for mod, _, _, _ in HOOKS:
        try:
            modules[mod] = importlib.import_module(f"epidyn.{mod}")
        except ImportError:
            modules[mod] = None

    def set_replicate(args):
        tracer.replicate = int(args[0][0])

    def floored(span, args, result):
        if len(args) > 3:  # c_min, passed positionally by dynamics.step
            span["floored_entries"] = int(np.count_nonzero(result == args[3]))

    def dead_rows(span, args, result):
        influence = importlib.import_module("epidyn.influence")
        guard = getattr(influence, "ZERO_ROW_GUARD", 0.0)
        weights = np.asarray(args[0], dtype=float) * np.asarray(args[1], dtype=float)
        span["dead_rows"] = int(np.count_nonzero(weights.sum(axis=1) <= guard))

    def observations(span, args, result):
        span["observations"] = len(result)

    def exponent(span, args, result):
        span["exponent"] = result[1]

    def dobrushin_bytes(span, args, result):
        n = np.asarray(args[0]).shape[0]
        # M[:, None, :] - M[None, :, :] and its absolute value, float64 each
        span["bytes_computed"] = 2 * n**3 * 8

    counts = {
        "influence.credibility": floored,
        "influence.learning": dead_rows,
        "dynamics.draw_sample": observations,
        "spectral.is_primitive": exponent,
        "spectral.dobrushin": dobrushin_bytes,
    }
    for mod, owner_name, attr, name in HOOKS:
        module = modules[mod]
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None:
            tracer.missing.append(name)
            continue
        around = _PeakMemory if name == "spectral.analyze" else None
        before = set_replicate if name == "dynamics.replicate" else None
        tracer.wrap(
            owner, attr, name, before=before, after=counts.get(name), around=around
        )

    # Landscapes evaluate through their class's per_population; wrap each
    # class that defines one.
    knowledge = importlib.import_module("epidyn.knowledge")
    base = getattr(knowledge, "LikelihoodLandscape", None)
    classes = [] if base is None else [base, *_subclasses(base)]
    owners = [c for c in classes if "per_population" in c.__dict__]
    if not owners:
        tracer.missing.append("knowledge.per_population")
    for cls in owners:
        tracer.wrap(cls, "per_population", "knowledge.per_population")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# ---------------------------------------------------------------- analysis


def duration(span) -> float:
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def children_of(spans) -> dict:
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def self_time(span, kids: dict) -> float:
    """Duration minus the part of it that the span's children cover."""
    inside = [
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in kids.get(span["id"], ())
    ]
    return duration(span) - covered([iv for iv in inside if iv[1] > iv[0]])


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values):
    """The highest nearest-rank percentile with at least ten samples above
    its rank, as (percentile, value); None when there are too few."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, s[rank - 1]
    return None


STEP_CHILDREN = ("influence.credibility", "influence.learning", "dynamics.draw_sample")


def step_breakdown_error(spans) -> float:
    """Largest |children + self - duration| over the dynamics.step spans;
    nonzero only if children overlap or leave their step."""
    kids = children_of(spans)
    worst = 0.0
    for step in (s for s in spans if s["name"] == "dynamics.step"):
        parts = sum(duration(c) for c in kids.get(step["id"], ()))
        worst = max(worst, abs(parts + self_time(step, kids) - duration(step)))
    return worst


def layer_metrics(spans, missing=()) -> dict:
    """Per-layer metrics from one traced run's spans.

    Returns name -> {"value", "unit", "n", "note"}.  A metric whose hook is
    missing is left out; a layer that was hooked but did no work reports 0
    with the note "no work".
    """
    kids = children_of(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    first_run = spans[0]["run"] if spans else None
    out = {}

    def put(name, unit, samples, needs, note=""):
        if any(n in missing for n in needs):
            return
        samples = list(samples)
        if not samples:
            out[name] = {"value": 0.0, "unit": unit, "n": 0, "note": "no work"}
            return
        out[name] = {"value": median(samples), "unit": unit, "n": len(samples), "note": note}

    def ms(spans_):
        return [1e3 * duration(s) for s in spans_]

    def named(span, name):
        return [c for c in kids.get(span["id"], ()) if c["name"] == name]

    steps = by_name.get("dynamics.step", [])
    put("dynamics.step_ms", "ms", ms(steps), ["dynamics.step"])
    step_tail = tail(ms(steps))
    if "dynamics.step" not in missing and steps:
        p, v = step_tail if step_tail else (100.0, max(ms(steps)))
        label = f"p{p:g}" if step_tail else "max (fewer than 11 steps)"
        out["dynamics.step_tail_ms"] = {"value": v, "unit": "ms", "n": len(steps), "note": label}
    draws = [named(s, "dynamics.draw_sample") for s in steps]
    put("dynamics.sample_ms", "ms", [sum(ms(d)) for d in draws],
        ["dynamics.step", "dynamics.draw_sample"], "all draws of one step")
    put("dynamics.draw_calls", "count", [len(d) for d in draws],
        ["dynamics.step", "dynamics.draw_sample"], "per step")
    put("dynamics.observations", "count",
        [sum(c.get("observations", 0) for c in d) for d in draws],
        ["dynamics.step", "dynamics.draw_sample"], "per step")
    put("dynamics.refit_ms", "ms", [1e3 * self_time(s, kids) for s in steps],
        ["dynamics.step", *STEP_CHILDREN], "step self time")

    cred = by_name.get("influence.credibility", [])
    put("influence.credibility_ms", "ms", [1e3 * self_time(s, kids) for s in cred],
        ["influence.credibility", "knowledge.per_population"], "self time")
    put("knowledge.likelihood_ms", "ms",
        [sum(ms(named(s, "knowledge.per_population"))) for s in cred],
        ["influence.credibility", "knowledge.per_population"])
    learning = by_name.get("influence.learning", [])
    put("influence.learning_ms", "ms", ms(learning), ["influence.learning"])
    for name, source, key in (
        ("influence.dead_rows", learning, "dead_rows"),
        ("influence.floored_entries", cred, "floored_entries"),
    ):
        runs = [s for s in source if s["run"] == first_run and key in s]
        if runs:
            out[name] = {"value": sum(s[key] for s in runs), "unit": "count",
                         "n": len(runs), "note": "total over the first traced run"}

    put("metrics.trace_record_ms", "ms", ms(by_name.get("metrics.trace_record", [])),
        ["metrics.trace_record"])
    put("metrics.mean_rows_ms", "ms", ms(by_name.get("metrics.mean_rows", [])),
        ["metrics.mean_rows"])
    writes = {}
    for s in by_name.get("metrics.to_csv", []) + by_name.get("metrics.mean_to_csv", []):
        writes[s["run"]] = writes.get(s["run"], 0.0) + 1e3 * self_time(s, kids)
    put("metrics.write_ms", "ms", writes.values(),
        ["metrics.to_csv", "metrics.mean_to_csv", "metrics.mean_rows"],
        "trace.csv plus mean.csv, without averaging")

    analyze = by_name.get("spectral.analyze", [])
    put("spectral.analyze_ms", "ms", ms(analyze), ["spectral.analyze"])
    for name, span_name in (
        ("spectral.is_primitive_ms", "spectral.is_primitive"),
        ("spectral.dobrushin_ms", "spectral.dobrushin"),
        ("spectral.second_modulus_ms", "spectral.second_modulus"),
    ):
        put(name, "ms", ms(by_name.get(span_name, [])), [span_name])
    prim = by_name.get("spectral.is_primitive", [])
    if prim and prim[0].get("exponent") is not None:
        out["spectral.primitivity_exponent"] = {
            "value": prim[0]["exponent"], "unit": "count", "n": len(prim), "note": ""}
    dob = by_name.get("spectral.dobrushin", [])
    if dob:
        out["spectral.dobrushin_bytes_computed"] = {
            "value": dob[0]["bytes_computed"], "unit": "bytes", "n": len(dob),
            "note": "computed as 2 temporaries of N^3 float64, not measured"}
    put("spectral.analyze_peak_mb", "MB",
        [s["peak_bytes"] / 2**20 for s in analyze if "peak_bytes" in s],
        ["spectral.analyze"], "tracemalloc peak")

    put("experiments.load_ms", "ms", ms(by_name.get("experiments.load_config", [])),
        ["experiments.load_config"])
    manifests = by_name.get("experiments.build_manifest", [])
    put("experiments.manifest_ms", "ms",
        [1e3 * (duration(s) - sum(duration(c) for c in named(s, "spectral.analyze")))
         for s in manifests],
        ["experiments.build_manifest", "spectral.analyze"], "without analyze")
    put("experiments.summarize_ms", "ms", ms(by_name.get("experiments.summarize", [])),
        ["experiments.summarize"], "including its mean_rows calls")
    return out
