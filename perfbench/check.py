"""Output checker for one `epidyn run` output directory.

``check_output`` returns a list of problems; an empty list means the run's
outputs are well formed and plausible.  The checks hold for any valid
random stream: none compares against a digest of one particular stream.
"""

from __future__ import annotations

import json
import os

import numpy as np

OUTPUT_FILES = ("trace.csv", "mean.csv", "manifest.json", "summary.txt")
TRACE_HEADER = "t,replicate,d_consensus,d_nearest,relative_entropy"
MEAN_HEADER = "t,d_consensus,d_nearest,relative_entropy"

# Rounding slack for quantities whose exact value is bounded by 1: rows of
# a learning matrix sum to 1 only to within a few ulps.
SPECTRAL_SLACK = 1e-9
# mean.csv may average in another order than a plain per-t mean.
MEAN_RTOL = 1e-12


def _read_csv(path: str, header: str, problems: list):
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            problems.append(f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
            return None
        rows = [line.split(",") for line in fh.read().splitlines() if line]
    width = header.count(",") + 1
    if any(len(r) != width for r in rows):
        problems.append(f"{os.path.basename(path)}: a row does not have {width} cells")
        return None
    try:
        return np.array(rows, dtype=float).reshape(len(rows), width)
    except ValueError as err:
        problems.append(f"{os.path.basename(path)}: {err}")
        return None


def check_trace(trace: np.ndarray, shape: dict, problems: list) -> None:
    R, T = shape["replicates"], shape["horizon"]
    if len(trace) != R * (T + 1):
        problems.append(f"trace.csv: {len(trace)} rows, expected {R * (T + 1)}")
        return
    pairs = {(int(t), int(r)) for t, r in trace[:, :2]}
    if pairs != {(t, r) for t in range(T + 1) for r in range(R)}:
        problems.append("trace.csv: (t, replicate) pairs are not each of 0..T x 0..R-1 once")
    dist = trace[:, 2:4]
    if not np.all(np.isfinite(dist)) or np.any(dist < 0.0):
        problems.append("trace.csv: a distance is negative or not finite")
    re = trace[:, 4]
    if shape["has_target"]:
        if not np.all(np.isfinite(re)) or np.any(re > 0.0):
            problems.append("trace.csv: relative_entropy is positive or not finite")
    elif not np.all(np.isnan(re)):
        problems.append("trace.csv: relative_entropy is set without a target")


def per_t_mean(trace: np.ndarray, horizon: int) -> np.ndarray:
    out = np.empty((horizon + 1, 4))
    for t in range(horizon + 1):
        out[t, 0] = t
        out[t, 1:] = trace[trace[:, 0] == t][:, 2:].mean(axis=0)
    return out


def check_mean(mean: np.ndarray, trace: np.ndarray, shape: dict, problems: list) -> None:
    T = shape["horizon"]
    if mean.shape != (T + 1, 4):
        problems.append(f"mean.csv: {len(mean)} rows, expected {T + 1}")
        return
    expected = per_t_mean(trace, T)
    if not np.allclose(mean, expected, rtol=MEAN_RTOL, atol=0.0, equal_nan=True):
        problems.append("mean.csv: does not equal the per-t mean of trace.csv")


def check_manifest(doc: dict, problems: list) -> None:
    spec = doc.get("spectral")
    if not isinstance(spec, dict):
        problems.append("manifest.json: no spectral report")
        return
    try:
        dob = float(spec["dobrushin"])
        mod = float(spec["second_modulus"])
        low = float(spec["min_entry"])
    except (KeyError, TypeError, ValueError):
        problems.append("manifest.json: spectral fields missing or not numbers")
        return
    if not 0.0 <= dob <= 1.0 + SPECTRAL_SLACK:
        problems.append(f"manifest.json: dobrushin {dob} outside [0, 1]")
    if not 0.0 <= mod <= 1.0 + SPECTRAL_SLACK:
        problems.append(f"manifest.json: second_modulus {mod} outside [0, 1]")
    if not low >= 0.0:
        problems.append(f"manifest.json: min_entry {low} is negative")
    exponent = spec.get("primitivity_exponent")
    if spec.get("is_primitive") and not (isinstance(exponent, int) and exponent >= 1):
        problems.append("manifest.json: primitive without a positive exponent")


def check_convergence(mean: np.ndarray, workload: str, problems: list) -> None:
    """Sanity bounds any valid stream meets at the benchmark's sizes."""
    if workload == "creation":
        # newborn tables are all zero and the target is all ones
        if mean[0, 3] != -1.0:
            problems.append(f"creation: relative_entropy at t=0 is {mean[0, 3]}, expected -1")
        if not mean[-1, 3] > mean[0, 3]:
            problems.append("creation: relative_entropy did not rise from t=0")
    elif not mean[-1, 1] < mean[0, 1]:
        problems.append(f"{workload}: final mean d_consensus is not below its t=0 value")


def check_output(out_dir: str, shape: dict, workload: str) -> list:
    problems = []
    missing = [f for f in OUTPUT_FILES if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return [f"missing output files: {', '.join(missing)}"]
    trace = _read_csv(os.path.join(out_dir, "trace.csv"), TRACE_HEADER, problems)
    mean = _read_csv(os.path.join(out_dir, "mean.csv"), MEAN_HEADER, problems)
    if trace is not None:
        check_trace(trace, shape, problems)
    if trace is not None and mean is not None and not problems:
        check_mean(mean, trace, shape, problems)
        if not problems:
            check_convergence(mean, workload, problems)
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            check_manifest(json.load(fh), problems)
    except json.JSONDecodeError as err:
        problems.append(f"manifest.json: {err}")
    if os.path.getsize(os.path.join(out_dir, "summary.txt")) == 0:
        problems.append("summary.txt is empty")
    return problems
