"""weakext benchmark: CLI wall time, peak RSS and label accuracy per workload.

    python3 perfbench/run.py --workload c7-1nn --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  One closed-loop driver (this process,
one client) generates the workload's inputs from ``--seed``, then runs
the workload's ``weakext`` commands (``python -m weakext`` with
``PYTHONPATH=src``) one after another in fresh child processes for
``--seconds`` seconds.  Every child is timed from spawn to exit and its
peak RSS is read from its own rusage.  Every output is checked; see
``workloads.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced command cycles (``tracer.py``), reports the
per-layer metrics from the traced ones and the tracing overhead against
the untraced ones, and times the float32 GEMM floor of the scans it saw.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with every sample, the
environment and the per-command detail, goes to
``.perfbench_run/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_run"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
SETUP_REPS = 15
CHILD_TIMEOUT_S = 150.0
NPROC = os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class ChildResult:
    rc: int
    wall: float
    maxrss_mb: float
    stderr: str


def run_child(argv, log: Path) -> ChildResult:
    """Run one child to completion; wall from spawn to reap, rusage of that child only."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, ru.ru_maxrss / 1024.0,
                       log.with_suffix(".err").read_text(errors="replace"))


def weakext(*args):
    return [sys.executable, "-m", "weakext", *args]


def traced(spans: Path, *args):
    return [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--", *args]


# ---------------------------------------------------------------------------
# Correctness bookkeeping


class Ledger:
    """Counts operations and failures; holds the run's reference digests."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def digest_problems(self, command: str, out: Path) -> list[str]:
        if not out.is_dir():
            return ["wrote no output directory"]
        names = {p.name for p in out.iterdir()}
        if names != wl.EXPECTED_FILES[command]:
            return [f"wrote {sorted(names)}, expected {sorted(wl.EXPECTED_FILES[command])}"]
        digest = wl.artifact_digest(out)
        problems = []
        first = self.digests.setdefault(command, digest)
        if digest != first:
            problems.append("artifacts differ from this run's first execution")
        want = self.expected.get(command)
        if want is not None and digest != want:
            problems.append(f"artifact digest {digest[:16]} != recorded {want[:16]}")
        return problems


class Workbench:
    """One workload at one seed: inputs, set-up, checked command cycles."""

    def __init__(self, w: wl.Workload, seed: int):
        self.w, self.seed = w, seed
        self.dir = WORK / w.name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        self.data = self.dir / "data"
        expected = _load_expected().get(w.name, {}).get(str(seed), {})
        self.ledger = Ledger(expected)
        self.inst = wl.make_inputs(w, seed, self.data)
        self.oracle = wl.oracle_sample(self.inst, seed) if self.inst is not None else None
        self.synth_m = None
        self.accuracy = []
        self._seq = 0

    def _log(self, tag):
        self._seq += 1
        return self.dir / "logs" / f"{self._seq:04d}-{tag}"

    def setup_once(self) -> float:
        """Cold interpreter + CLI dispatch of a no-op, then program-side preparation."""
        r = run_child(weakext("--help"), self._log("noop"))
        self.ledger.record("setup no-op", [] if r.rc == 0 else [f"exit {r.rc}: {_tail(r.stderr)}"])
        total = r.wall
        prep = wl.prep_argv(self.w, self.seed, self.data)
        if prep is not None:
            shutil.rmtree(self.data, ignore_errors=True)
            r = run_child(weakext(*prep), self._log("prep"))
            problems = [f"exit {r.rc}: {_tail(r.stderr)}"] if r.rc else self.ledger.digest_problems("synth", self.data)
            self.ledger.record("setup synth", problems)
            if not problems:
                self.synth_m = np.loadtxt(self.data / "votes.csv", delimiter=",", ndmin=2).shape[1]
            total += r.wall
        return total

    def cycle(self, trace_dir: Path | None = None) -> dict:
        """Run the workload's commands once; returns per-command wall and RSS."""
        walls, rss = {}, {}
        for command in self.w.commands:
            out = self.dir / "out" / command
            shutil.rmtree(out, ignore_errors=True)
            args = wl.command_argv(self.w, command, self.data, out)
            if trace_dir is None:
                r = run_child(weakext(*args), self._log(command))
            else:
                r = run_child(traced(trace_dir / f"{command}.json", *args), self._log(f"traced-{command}"))
            walls[command], rss[command] = r.wall, r.maxrss_mb
            label = f"{command} ({'traced' if trace_dir else 'untraced'})"
            if r.rc != 0:
                self.ledger.record(label, [f"exit {r.rc}: {_tail(r.stderr)}"])
            else:
                self.check(command, out, label)
        return {"walls": walls, "rss": rss}

    def check(self, command: str, out: Path, label: str) -> None:
        """Digest and content checks of one command's outputs; one ledger entry."""
        problems = self.ledger.digest_problems(command, out)
        if not problems:
            try:
                problems, acc = self._check_content(command, out)
            except (OSError, ValueError, KeyError) as exc:
                problems, acc = [f"unreadable output: {exc}"], None
            if acc is not None and not problems:
                self.accuracy.append(acc)
        self.ledger.record(label, problems)

    def _check_content(self, command, out):
        if command == "pipeline":
            return wl.check_pipeline(out, self.inst, self.oracle)
        if command == "tune":
            return wl.check_tune(out, self.synth_m or 0)
        return wl.check_diagnose(out), None


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _load_expected() -> dict:
    path = BENCH / "expected_digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ---------------------------------------------------------------------------
# Statistics


def summarize(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "samples": len(s), "tail": None, "tail_pct": None,
           "values": samples}
    if len(s) >= 11:
        out["tail"] = s[len(s) - 11]
        out["tail_pct"] = round(100.0 * (len(s) - 10) / len(s), 1)
    return out


# ---------------------------------------------------------------------------
# Traces


PREP = "core.EmbeddingSet."  # lazy derived-array builds


def span_stats(doc: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds.

    Self time subtracts only children on the span's own thread: work a
    call hands to worker threads stays in the caller, which waits for it.
    The lazy ``EmbeddingSet`` builds are the exception.  Two workers can
    build the same array at once, so each (set, array) counts once, by
    its earliest span, and a build on a worker thread is taken out of the
    self time of the call that waits for it.
    """
    spans = doc["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s in spans:
        p = s["parent"]
        if p is not None and spans[p]["thread"] == s["thread"]:
            child[p] += dur[s["id"]]
    first = {}
    for s in spans:  # in order of start
        if s["name"].startswith(PREP):
            first.setdefault((s["set"], s["name"]), s["id"])
    kept = set(first.values())
    for i in kept:
        a = spans[i]["parent"]
        while a is not None and spans[a]["name"].startswith(PREP):
            a = spans[a]["parent"]
        if a is not None and spans[a]["thread"] != spans[i]["thread"]:
            child[a] += dur[i] - child[i]
    stats = {}
    for s in spans:
        if s["name"].startswith(PREP) and s["id"] not in kept:
            continue
        st = stats.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += dur[s["id"]]
        st["self_s"] += dur[s["id"]] - child[s["id"]]
    return stats


def layer_metrics(stats: dict, scans: list[dict]) -> dict:
    """The per-layer metrics of one traced cycle (gemm floor filled in later)."""

    def self_s(*names):
        return sum(stats[n]["self_s"] for n in names if n in stats)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    extend = [s for s in scans if s["name"] == "extension.extend_votes"]
    scan_wall = sum(s["end"] - s["start"] for s in scans)
    cells = sum(q * sp for s in extend for q, sp, _ in s["shapes"])
    extend_s = self_s("extension.extend_votes")
    return {
        "core.load_s": self_s("core.load_embeddings", "core.load_votes", "core.load_labels"),
        "core.prep_s": self_s(*[n for n in stats if n.startswith(PREP)]),
        "core.write_s": self_s("core.save_votes", "core.save_labels"),
        "extension.extend_s": extend_s,
        "extension.extend_calls": calls("extension.extend_votes"),
        "extension.nearest_s": self_s("extension.nearest_in_support"),
        "extension.nearest_calls": calls("extension.nearest_in_support"),
        "extension.cells": cells,
        "extension.cells_per_s": cells / extend_s if extend_s > 0 else 0.0,
        "extension.cpu_util": (sum(s["cpu"] for s in scans) / (scan_wall * NPROC)) if scan_wall > 0 else 0.0,
        "extension.peak_scratch_mb": max((s["scratch_bytes"] for s in scans), default=0) / 2**20,
        "label_model.fit_s": self_s("label_model.estimate_accuracies"),
        "label_model.fit_calls": calls("label_model.estimate_accuracies"),
        "label_model.predict_s": self_s("label_model.predict"),
        "experiments.tune_self_s": self_s("experiments.tune_shared_radius", "experiments.refine_radii"),
        "diagnostics.profile_s": self_s("diagnostics.estimate_profile"),
        "diagnostics.accuracy_curves_s": self_s("diagnostics.measured_accuracy_curves"),
        "diagnostics.diagnose_self_s": self_s("diagnostics.diagnose"),
        "cli.self_s": self_s(*[n for n in stats if n.startswith("cli.")]),
    }


def read_traced_cycle(trace_dir: Path, commands) -> tuple[dict, list[dict]]:
    stats, scans = {}, []
    for command in commands:
        path = trace_dir / f"{command}.json"
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        for name, st in span_stats(doc).items():
            acc = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        scans += [s for s in doc["spans"] if s["name"] in ("extension.extend_votes",
                                                           "extension.nearest_in_support")]
    return stats, scans


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    probe = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util as u, json\n"
         "spec = u.find_spec('weakext._nnkernel')\n"
         "ok = None\n"
         "if spec is not None:\n"
         "    import weakext._nnkernel as k; ok = bool(k.AVAILABLE)\n"
         "print(json.dumps(ok))"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:  # not the commit of some enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nnkernel_available": json.loads(probe.stdout) if probe.returncode == 0 else None,
        "commit": commit,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Runs


def run_untraced(bench: Workbench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.setup_once()]  # the commands need its inputs
    cycles = []
    busy = 0.0  # seconds spent in cycles
    while not cycles or busy < seconds:
        t0 = time.perf_counter()
        cycles.append(bench.cycle())
        busy += time.perf_counter() - t0
        # Spread the set-ups over the run: the machine's speed drifts over
        # seconds, and set-ups taken back to back would share one spell.
        while len(setups) < SETUP_REPS * min(1.0, busy / seconds):
            setups.append(bench.setup_once())
    per_command = {c: summarize([cy["walls"][c] for cy in cycles]) for c in bench.w.commands}
    cycle_walls = [sum(cy["walls"].values()) for cy in cycles]
    cycle_peaks = [max(cy["rss"].values()) for cy in cycles]
    acc = bench.accuracy[0] if bench.accuracy else 0.0
    metrics = {
        "cycle_s": statistics.median(cycle_walls),
        "peak_rss_mb": statistics.median(cycle_peaks),
        "setup_s": statistics.median(setups),
        "label_accuracy": acc,
    }
    detail = {
        "commands": {f"{c}_s": per_command[c] for c in bench.w.commands},
        "cycle_s": summarize(cycle_walls),
        "setup_s": summarize(setups),
        "peak_rss_mb": summarize(cycle_peaks),
        "peak_rss_mb_by_command": {c: summarize([cy["rss"][c] for cy in cycles]) for c in bench.w.commands},
        "accuracies_seen": sorted(set(bench.accuracy)),
    }
    return metrics, detail


def run_traced(bench: Workbench, seconds: float) -> tuple[dict, dict]:
    bench.setup_once()
    plain, traced_cycles = [], []
    t0 = time.perf_counter()
    while not traced_cycles or time.perf_counter() - t0 < seconds:
        plain.append(bench.cycle())
        tdir = bench.dir / "trace" / f"{len(traced_cycles):03d}"
        tdir.mkdir(parents=True)
        cy = bench.cycle(trace_dir=tdir)
        cy["stats"], cy["scans"] = read_traced_cycle(tdir, bench.w.commands)
        traced_cycles.append(cy)

    shapes = [sh for s in traced_cycles[0]["scans"] if s["name"] == "extension.extend_votes"
              for sh in s["shapes"]]
    shapes_path = bench.dir / "trace" / "shapes.json"
    shapes_path.write_text(json.dumps(shapes))
    gemm_path = bench.dir / "trace" / "gemm.json"
    r = run_child([sys.executable, str(BENCH / "tracer.py"), "--gemm", str(shapes_path),
                   "--spans", str(gemm_path)], bench._log("gemm"))
    bench.ledger.record("gemm floor probe", [] if r.rc == 0 else [f"exit {r.rc}: {_tail(r.stderr)}"])
    gemm = json.loads(gemm_path.read_text()) if r.rc == 0 else {"probe_gflops": 0.0, "floor_s": 0.0}

    per_cycle = [layer_metrics(cy["stats"], cy["scans"]) for cy in traced_cycles]
    layers = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    layers["extension.gemm_floor_s"] = gemm["floor_s"]
    layers["extension.gemm_floor_ratio"] = (
        layers["extension.extend_s"] / gemm["floor_s"] if gemm["floor_s"] > 0 else 0.0)
    plain_cycle = statistics.median(sum(cy["walls"].values()) for cy in plain)
    traced_cycle = statistics.median(sum(cy["walls"].values()) for cy in traced_cycles)
    layers["trace.overhead"] = traced_cycle / plain_cycle - 1.0
    layers["gemm.probe_gflops"] = gemm["probe_gflops"]
    overhead = {
        c: statistics.median(cy["walls"][c] for cy in traced_cycles)
        / statistics.median(cy["walls"][c] for cy in plain) - 1.0
        for c in bench.w.commands
    }
    detail = {
        "tracing_overhead_by_command": overhead,
        "traced_cycles": len(traced_cycles),
        "untraced_cycles": len(plain),
        "gemm": gemm,
        "span_stats_first_cycle": traced_cycles[0]["stats"],
        "per_cycle": per_cycle,
    }
    return layers, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="weakext CLI benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "weakext" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no weakext sources under {ROOT / 'src'} or no {SPEC.name}; run from a full checkout",
              file=sys.stderr)
        return 2

    w = wl.WORKLOADS[args.workload]
    bench = Workbench(w, args.seed)
    env = environment()
    run = run_traced if args.trace else run_untraced
    metrics, detail = run(bench, args.seconds)
    ledger = bench.ledger
    spec = json.loads(SPEC.read_text())[("per_layer" if args.trace else "end_to_end")]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {SPEC.name}: {sorted(units)}")
    metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": w.n, "loop": "closed, 1 client, --threads " + wl.THREADS,
        "environment": env, "metrics": metrics,
        "detail": detail, "digests": ledger.digests,
        "digests_checked_against_record": bool(ledger.expected),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "error_rate": ledger.failed / ledger.attempted, "problems": ledger.problems,
    }
    (bench.dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {w.name}  seed {args.seed}  n={w.n}  trace={args.trace}  "
          f"closed loop, 1 client, --threads {wl.THREADS}")
    for k, m in metrics.items():
        print(f"  {k:32s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        for name, s in detail["commands"].items():
            tail = "n/a (fewer than 11 samples)" if s["tail"] is None else f"{s['tail']:.4f} (p{s['tail_pct']})"
            print(f"  {name:32s} median {s['median']:.4f} s  tail {tail}  samples {s['samples']}")
    else:
        for c, o in detail["tracing_overhead_by_command"].items():
            print(f"  tracing overhead {c:15s} {o:+.3f}")
    print(f"  error_rate                       {ledger.failed}/{ledger.attempted}")
    for prob in ledger.problems:
        print(f"  FAIL {prob}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
