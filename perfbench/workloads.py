"""Workload definitions: seeded input generators, command lines, output checks.

Every workload is a fixed list of ``weakext`` commands run in fresh child
processes on inputs made here from a seed.  The program only ever sees
the generated files.  The checks in this module are independent of the
program: a brute-force float64 extension oracle (the same rule as
``brute_force_extend`` in ``tests/test_extension.py``), artifact digests,
and consistency checks between a command's own output files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THREADS = "2"
SOURCE_ACCURACY = 0.8
ORACLE_SAMPLE = 200  # abstainers checked per source, per run


@dataclass(frozen=True)
class Instance:
    """Vote-extension inputs the benchmark wrote, kept for the oracle."""

    x: np.ndarray  # float32 rows exactly as written to the .emb file
    votes: np.ndarray  # (n, m) int8
    gold: np.ndarray  # (n,) int8
    metric: str
    radius: float
    weighting: str


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "c7", "offset" or "synth"
    n: int
    weighting: str = "1nn"

    @property
    def commands(self) -> tuple[str, ...]:
        return ("tune", "diagnose") if self.kind == "synth" else ("pipeline",)


# why each was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("c7-1nn", "c7", 32_000, "1nn"),
        Workload("c7-wsum", "c7", 10_000, "wsum"),
        Workload("synth-tune", "synth", 10_000, "wsum"),
        Workload("offset-euclid", "offset", 3_000, "1nn"),
    )
}


# ---------------------------------------------------------------------------
# Input generation


def _write_emb(x: np.ndarray, path: Path) -> None:
    header = json.dumps({"n": x.shape[0], "d": x.shape[1]}, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def _write_int_csv(arr: np.ndarray, path: Path) -> None:
    arr = arr.reshape(arr.shape[0], -1)
    text = np.array(["-1", "0", "1"])[arr + 1]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(",".join(row) for row in text))
        fh.write("\n")


def _linear_votes(rng, x64, m, fraction):
    """Gold from a seeded linear rule; m sources vote gold with accuracy 0.8."""
    n, d = x64.shape
    w = rng.standard_normal(d)
    gold = np.where((x64 - x64.mean(axis=0)) @ w >= 0.0, 1, -1).astype(np.int8)
    votes = np.zeros((n, m), np.int8)
    for j in range(m):
        idx = rng.choice(n, int(fraction * n), replace=False)
        ok = rng.random(idx.size) < SOURCE_ACCURACY
        votes[idx, j] = np.where(ok, gold[idx], -gold[idx])
    return votes, gold


def make_inputs(w: Workload, seed: int, data: Path) -> Instance | None:
    """Write the workload's benchmark-generated inputs into ``data``.

    synth-tune returns None: its task comes from the program's own
    ``synth`` command, run at set-up.
    """
    data.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, w.n])
    if w.kind == "c7":
        x = rng.standard_normal((w.n, 128)).astype(np.float32)
        votes, gold = _linear_votes(rng, x.astype(np.float64), 5, 0.3)
        inst = Instance(x, votes, gold, "cosine", 0.7, w.weighting)
    elif w.kind == "offset":
        x = (rng.random((w.n, 16)) + 1000.0).astype(np.float32)
        votes, gold = _linear_votes(rng, x.astype(np.float64), 4, 0.2)
        inst = Instance(x, votes, gold, "euclidean", 0.8, w.weighting)
    else:
        return None
    _write_emb(inst.x, data / "embeddings.emb")
    _write_int_csv(inst.votes, data / "votes.csv")
    _write_int_csv(inst.gold, data / "labels.csv")
    return inst


def prep_argv(w: Workload, seed: int, data: Path) -> list[str] | None:
    """Program-side preparation that set-up must pay for, or None."""
    if w.kind != "synth":
        return None
    return ["synth", "--out", str(data), "--n", str(w.n), "--cells", "10", "--seed", str(seed)]


def command_argv(w: Workload, command: str, data: Path, out: Path) -> list[str]:
    io = ["--embeddings", str(data / "embeddings.emb"), "--votes", str(data / "votes.csv")]
    common = ["--prior", "0.5", "--threads", THREADS, "--out", str(out)]
    if command == "pipeline":
        radius = "0.7" if w.kind == "c7" else "0.8"
        distance = "cosine" if w.kind == "c7" else "euclidean"
        return ["pipeline", *io, "--gold", str(data / "labels.csv"), "--distance", distance,
                "--radii", radius, "--weighting", w.weighting, *common]
    dev = ["--dev-labels", str(data / "labels.csv"), "--distance", "euclidean"]
    if command == "tune":
        return ["tune", *io, *dev, "--weighting", w.weighting, "--grid-size", "8",
                "--grid-max", "0.2", "--refine-passes", "0", *common]
    return ["diagnose", *io, *dev, "--radii", "0.05", *common]


# ---------------------------------------------------------------------------
# Output checks


EXPECTED_FILES = {
    "pipeline": {"extended_votes.csv", "extension_report.json", "model.json",
                 "posteriors.csv", "hard_labels.csv", "metrics.json"},
    "tune": {"radius_config.json", "tuning_curve.csv", "tuning_summary.json"},
    "diagnose": {"diagnostics.json"},
    "synth": {"embeddings.emb", "votes.csv", "labels.csv", "task.json"},
}


def artifact_digest(out: Path) -> str:
    """sha256 over every file a command wrote: names and contents, sorted."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def _read_int_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)


def oracle_sample(inst: Instance, seed: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Brute-force float64 extension of a seeded sample of abstainers.

    Returns ``(source, rows, expected_votes)`` per source.  Distances use
    the reference formulas of the repository's extension tests; ties in
    1nn go to the lowest support index.
    """
    rng = np.random.default_rng([seed, 7])
    x = inst.x.astype(np.float64)
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    checks = []
    for j in range(inst.votes.shape[1]):
        col = inst.votes[:, j]
        supp = np.flatnonzero(col != 0)
        abst = np.flatnonzero(col == 0)
        rows = np.sort(rng.choice(abst, min(ORACLE_SAMPLE, abst.size), replace=False))
        if inst.metric == "cosine":
            dist = np.clip(1.0 - unit[rows] @ unit[supp].T, 0.0, 2.0)
        else:
            diff = x[rows][:, None, :] - x[supp][None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        inside = dist <= inst.radius
        if inst.weighting == "1nn":
            k = dist.argmin(axis=1)  # first minimum = lowest index
            near = inside[np.arange(rows.size), k]
            expected = np.where(near, col[supp[k]], 0)
        else:
            expected = np.sign((inside * col[supp][None, :].astype(np.int64)).sum(axis=1))
        checks.append((j, rows, expected.astype(np.int64)))
    return checks


def check_pipeline(out: Path, inst: Instance, oracle) -> tuple[list[str], float]:
    """Problems found in one pipeline run's outputs, and its label accuracy."""
    problems = []
    ext = _read_int_csv(out / "extended_votes.csv")
    if ext.shape != inst.votes.shape:
        return [f"extended_votes.csv has shape {ext.shape}, expected {inst.votes.shape}"], float("nan")
    voted = inst.votes != 0
    if not np.array_equal(ext[voted], inst.votes[voted]):
        problems.append("extension altered an existing vote")
    for j, rows, expected in oracle:
        bad = np.flatnonzero(ext[rows, j] != expected)
        if bad.size:
            problems.append(f"source {j}: {bad.size}/{rows.size} sampled abstainers differ "
                            f"from the float64 oracle (first row {rows[bad[0]]})")
    hard = _read_int_csv(out / "hard_labels.csv")[:, 0]
    metrics = json.loads((out / "metrics.json").read_text())
    acc = float(np.mean(hard == inst.gold))
    if abs(metrics.get("accuracy", -1.0) - acc) > 1e-12:
        problems.append(f"metrics.json accuracy {metrics.get('accuracy')} != {acc} recomputed from hard_labels.csv")
    post = np.loadtxt(out / "posteriors.csv", ndmin=1)
    if post.shape != hard.shape or not ((post >= 0) & (post <= 1)).all():
        problems.append("posteriors.csv is not one probability per row")
    elif not np.array_equal(np.where(post >= 0.5, 1, -1), hard):  # prior 0.5: ties go to +1
        problems.append("hard_labels.csv disagrees with thresholded posteriors.csv")
    return problems, acc


def check_tune(out: Path, m: int) -> tuple[list[str], float]:
    problems = []
    summary = json.loads((out / "tuning_summary.json").read_text())
    config = json.loads((out / "radius_config.json").read_text())
    value = float(summary.get("shared_metric", float("nan")))
    if not 0.0 <= value <= 1.0:
        problems.append(f"tuned dev metric {value} outside [0, 1]")
    radii = config.get("radii", [])
    if len(radii) != m or any(r not in (0.0, summary.get("shared_radius")) for r in radii):
        problems.append(f"radius_config.json radii {radii} inconsistent with shared radius")
    return problems, value


def check_diagnose(out: Path) -> list[str]:
    diag = json.loads((out / "diagnostics.json").read_text())
    missing = {"profile", "radius_grid"} - diag.keys()
    return [f"diagnostics.json lacks {sorted(missing)}"] if missing else []
