"""Check that two epidyn checkouts write the same output files.

    python3 tools/compare_outputs.py OLD NEW [--seed S ...] [--work DIR]

OLD and NEW are epidyn checkouts, or their ``src`` directories.  Both run
the four presets (test3-creation at ``--horizon 600``) and the creation,
crowd and naming workload configs of ``perfbench/workloads.py`` at each
``--seed`` (5 and 12 by default), each as a fresh ``epidyn run`` process
with one BLAS thread and no replicate workers.  Two variants of the naming
config give one colour likelihood 0 everywhere, on its complete structure
and on a ring lattice, so that credibility meets exact-zero factors, which
no preset and no workload does.  A third runs the naming config without
self-influence (1 - I), a structure whose widest row is N - 1 wide.  A
fourth, ``crowd-long``, runs the crowd config at horizon ``CROWD_LONG``, so
that its streams are read in several chunks of steps (13, 13 and 4) and a
chunk ends in the middle of the run.  A fifth, ``crowd-holes``, sets
about a third of the crowd config's initial entries to 0, so that its
agents hold many distinct support masks on a ring table in a box space,
where the crowd config gives them all one.  ``naming-reps`` runs the
naming config at ``NAMING_REPS`` replicates, so that ``summary.txt``
projects several discrete equilibria, and ``crowd-chunks`` the crowd config
at ``CROWD_CHUNKS`` replicates and horizon 3, whose trace grid is built
from two chunks of replicates (6 and 1).  ``naming-drop`` runs the naming
config with ``drop_zero_social``, so that the refit drops its zero-concept
social observations, which no preset and no other config does.  Two crowd
variants have an initial learning matrix that is not primitive, so that
the manifest's spectral report takes its not-primitive branches:
``crowd-bipartite`` links each agent to the agents at the odd offsets
``BIPARTITE_OFFSETS`` on each side and not to itself, a structure of
period 2 on the even ring, and ``crowd-split`` runs on two disjoint rings
of half the agents each, a reducible structure.  ``crowd-weights`` gives
the crowd ring many distinct positive weights, one ``-0.0`` entry off the
ring and one ``5e-324`` entry, and writes the self weights as the JSON
integer 1, which the manifest echoes as 1.0, so that both sides encode a
config echo of many distinct values.  The workload configs
are generated once from this checkout's ``perfbench/workloads.py``, which
is only read, and given to both sides.  Then each checkout runs every
``demos/*.py`` script of its own, from a directory of its own under the
work directory and with the environment of the runs.

``trace.csv``, ``mean.csv`` and ``summary.txt`` must be byte-identical,
``manifest.json`` equal without its ``created`` timestamp, and each
demo's stdout byte-identical (a demo that only one side has differs).
Each difference is printed; the exit code is 0 when there is none, 1 when
there is one, and 2 when a checkout holds no epidyn or a run or a demo
fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = (
    ("test1-self-inertia", ()),
    ("test2-professor", ()),
    ("test3-creation", ("--horizon", "600")),
    ("test4-language", ()),
)
WORKLOADS = ("creation", "crowd", "naming")
ZERO_COLOUR = 1  # the colour whose likelihood the zero-likelihood variants set to 0
CROWD_LONG = 30  # the horizon of the crowd-long variant
HOLE_SHARE = 1 / 3  # the share of initial entries the crowd-holes variant sets to 0
NAMING_REPS = 3  # the replicates of the naming-reps variant
CROWD_CHUNKS = 7  # the replicates of the crowd-chunks variant
BIPARTITE_OFFSETS = (1, 3, 5, 7)  # each side, of the crowd-bipartite structure
WEIGHT_RANGE = (0.5, 2.0)  # of the crowd-weights ring's weights off the diagonal
FILES = ("trace.csv", "mean.csv", "summary.txt")


def source_dir(path: str) -> Path:
    """The directory that holds the ``epidyn`` package of a checkout."""
    root = Path(path).resolve()
    for candidate in (root / "src", root):
        if (candidate / "epidyn" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"no epidyn package under {root}")


def workload_configs(work: Path, seeds) -> list:
    """(name, config path) of each workload config at each seed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = []
    for seed in seeds:
        docs = {name: workloads.generate(name, seed) for name in WORKLOADS}
        docs.update(zero_likelihood_variants(workloads, seed))
        docs["naming-no-self"] = no_self_influence_variant(workloads, seed)
        docs["crowd-long"] = dict(docs["crowd"], horizon=CROWD_LONG)
        docs["crowd-holes"] = crowd_holes_variant(workloads, seed)
        docs["naming-reps"] = dict(docs["naming"], replicates=NAMING_REPS)
        docs["crowd-chunks"] = dict(docs["crowd"], replicates=CROWD_CHUNKS, horizon=3)
        docs["naming-drop"] = dict(docs["naming"], drop_zero_social=True)
        docs.update(crowd_structure_variants(workloads, seed))
        docs["crowd-weights"] = crowd_weights_variant(workloads, seed)
        for name, doc in docs.items():
            path = work / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")
            configs.append((f"{name}-seed{seed}", str(path)))
    return configs


def zero_likelihood_variants(workloads, seed: int) -> dict:
    """The naming config with colour ``ZERO_COLOUR``'s likelihood 0 at
    every wavelength, on its complete structure and on a ring lattice."""
    doc = workloads.generate("naming", seed)
    for row in doc["likelihood"]["table"]:
        row[ZERO_COLOUR] = 0.0
    ring = workloads.ring_lattice(len(doc["initial"]), workloads.CROWD["neighbours"])
    return {"naming-zero": doc, "naming-zero-ring": dict(doc, gamma=ring)}


def no_self_influence_variant(workloads, seed: int) -> dict:
    """The naming config with the structure 1 - I: every agent listens to
    all others and not to itself."""
    doc = workloads.generate("naming", seed)
    n = len(doc["initial"])
    doc["gamma"] = [[float(i != j) for j in range(n)] for i in range(n)]
    return doc


def crowd_holes_variant(workloads, seed: int) -> dict:
    """The crowd config with each initial entry set to 0 with probability
    ``HOLE_SHARE``, drawn from the seed alone."""
    doc = workloads.generate("crowd", seed)
    rng = random.Random(f"crowd-holes:{seed}")
    for table in doc["initial"]:
        for entry in table:
            if rng.random() < HOLE_SHARE:
                entry[:] = [0.0] * len(entry)
    return doc


def crowd_structure_variants(workloads, seed: int) -> dict:
    """The crowd config on a bipartite ring (offsets ``BIPARTITE_OFFSETS``
    each side, no self-influence) and on two disjoint rings of half the
    agents, each a ring lattice of the crowd's neighbourhood."""
    doc = workloads.generate("crowd", seed)
    n = len(doc["initial"])
    bipartite = [[0.0] * n for _ in range(n)]
    for i, row in enumerate(bipartite):
        for d in BIPARTITE_OFFSETS:
            row[(i + d) % n] = row[(i - d) % n] = 1.0
    half = workloads.ring_lattice(n // 2, workloads.CROWD["neighbours"])
    pad = [0.0] * (n // 2)
    split = [row + pad for row in half] + [pad + row for row in half]
    return {"crowd-bipartite": dict(doc, gamma=bipartite), "crowd-split": dict(doc, gamma=split)}


def crowd_weights_variant(workloads, seed: int) -> dict:
    """The crowd config with each ring weight off the diagonal drawn from
    ``WEIGHT_RANGE`` by the seed alone, each self weight the integer 1, and
    two more entries off the ring: -0.0 in row 0 and 5e-324 in row 1."""
    doc = workloads.generate("crowd", seed)
    rng = random.Random(f"crowd-weights:{seed}")
    n = len(doc["gamma"])
    for i, row in enumerate(doc["gamma"]):
        for j, weight in enumerate(row):
            if weight:
                row[j] = 1 if i == j else rng.uniform(*WEIGHT_RANGE)
    doc["gamma"][0][n // 2] = -0.0
    doc["gamma"][1][n // 2] = 5e-324
    return doc


def child_env(src: Path) -> dict:
    """The environment of every run: ``src`` on the path, one BLAS thread
    and no replicate workers."""
    env = {k: v for k, v in os.environ.items() if k != "EPIDYN_THREADS"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run(src: Path, target: str, args, out: Path) -> None:
    cmd = [sys.executable, "-m", "epidyn.cli", "run", target, *args, "--out", str(out)]
    proc = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{src}: `{' '.join(cmd[3:])}` exited {proc.returncode}")


def demo_names(sources) -> list:
    """The file names of the demo scripts of either checkout."""
    return sorted({path.name for src in sources for path in (src.parent / "demos").glob("*.py")})


def demo_stdout(src: Path, name: str, cwd: Path):
    """The stdout bytes of the checkout's ``demos/<name>`` run from
    ``cwd``, or None when the checkout has no such demo."""
    script = src.parent / "demos" / name
    if not script.is_file():
        return None
    cwd.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, str(script)], env=child_env(src), cwd=cwd,
                          capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write((proc.stdout + proc.stderr).decode(errors="replace"))
        raise SystemExit(f"{script} exited {proc.returncode}")
    return proc.stdout


def manifest(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("created", None)
    return doc


def differences(old: Path, new: Path) -> list:
    found = [name for name in FILES if (old / name).read_bytes() != (new / name).read_bytes()]
    if manifest(old / "manifest.json") != manifest(new / "manifest.json"):
        found.append("manifest.json")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the reference checkout or its src directory")
    parser.add_argument("new", help="the checkout under test or its src directory")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload config seed (repeatable; default 5 and 12)")
    parser.add_argument("--work", help="directory for the configs and outputs "
                        "(default: a new temporary directory, kept)")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="epidyn-compare-"))
    work.mkdir(parents=True, exist_ok=True)

    cases = [(name, name, extra) for name, extra in PRESETS]
    cases += [(name, path, ()) for name, path in workload_configs(work, args.seed or [5, 12])]
    failed = total = 0
    try:
        old, new = source_dir(args.old), source_dir(args.new)
        for name, target, extra in cases:
            outs = [work / side / name for side in ("old", "new")]
            for src, out in zip((old, new), outs):
                run(src, target, extra, out)
            found = differences(*outs)
            failed, total = failed + bool(found), total + 1
            print(f"{name}: {'differs in ' + ', '.join(found) if found else 'identical'}")
        for name in demo_names((old, new)):
            old_out, new_out = (demo_stdout(src, name, work / side / "demos")
                                for src, side in ((old, "old"), (new, "new")))
            same = old_out is not None and old_out == new_out
            failed, total = failed + (not same), total + 1
            print(f"demos/{name}: {'identical' if same else 'differs in stdout'}")
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    print(f"{total - failed} of {total} identical; outputs in {work}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
