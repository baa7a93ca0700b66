"""Traced child process: run one ``weakext`` command with every layer wrapped.

    python3 perfbench/tracer.py --spans SPANS.json -- <weakext arguments>
    python3 perfbench/tracer.py --gemm SHAPES.json --spans OUT.json

The first form imports ``weakext`` (from ``PYTHONPATH``), wraps the
public module-level functions of ``core``, ``extension``,
``label_model``, ``experiments``, ``diagnostics`` and ``cli`` plus the
lazy ``EmbeddingSet`` derived-array builds, runs ``cli.main`` and writes
one record per call: name, id, parent id, thread, start and end.
The scan calls (``extend_votes``, ``nearest_in_support``) additionally
record process CPU time and the tracemalloc peak above entry, and
``extend_votes`` its per-source scan shapes.  Nothing
in the program is modified on disk; the wrappers live only in this
process.

The second form times float32 GEMMs: a 4096x4096x128 probe of the
machine's rate, and the same-shape floor of a list of (queries, support,
d) scans, chunked as the program chunks them.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import threading
import time
import tracemalloc

LAYERS = ("core", "extension", "label_model", "experiments", "diagnostics", "cli")
SCAN_FUNCS = ("extension.extend_votes", "extension.nearest_in_support")
CHUNK_ELEMS = 32 * 1024 * 1024  # score elements per chunk, as in weakext.extension


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self):
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name):
        stack = self._stack()
        # a worker thread's outermost span hangs off the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = {"id": len(self.spans), "parent": None if parent is None else parent["id"],
                    "name": name, "thread": threading.get_ident(), "start": time.perf_counter()}
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack().pop()


def _extend_shapes(bound):
    """(queries, support, d) of every source extend_votes scans, from its inputs."""
    emb, votes, radii = bound.arguments["emb"], bound.arguments["votes"], bound.arguments["config"].radii
    shapes = []
    for j in range(votes.m):
        q = int((votes.votes[:, j] == 0).sum())
        if radii[j] > 0.0 and 0 < q < votes.n:
            shapes.append([q, votes.n - q, emb.d])
    return shapes


def _wrap(tracer, name, fn):
    if name in SCAN_FUNCS:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def scan(*args, **kwargs):
            shapes = []
            if name == "extension.extend_votes":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                shapes = _extend_shapes(bound)
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cpu0 = time.process_time()
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
                span["cpu"] = time.process_time() - cpu0
                span["scratch_bytes"] = tracemalloc.get_traced_memory()[1] - base
                span["shapes"] = shapes
                if started:
                    tracemalloc.stop()

        return scan

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return plain


def install(tracer):
    """Wrap every layer's public functions and every binding of them."""
    import importlib

    mods = {layer: importlib.import_module(f"weakext.{layer}") for layer in LAYERS}
    pkg = importlib.import_module("weakext")
    wrapped = {}
    for layer, mod in mods.items():
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = _wrap(tracer, f"{layer}.{attr}", fn)
    # `from .x import f` copies the binding, so rebind it in every module
    for mod in [pkg, *mods.values()]:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped and inspect.isfunction(val):
                setattr(mod, attr, wrapped[id(val)])

    cls = mods["core"].EmbeddingSet
    orig = cls._cached

    def cached(self, key, build):
        if key in self._cache:
            return orig(self, key, build)
        span = tracer.open(f"core.EmbeddingSet.{key}")
        span["set"] = id(self)  # two workers may build the same array at once
        try:
            return orig(self, key, build)
        finally:
            tracer.close(span)

    cls._cached = cached
    return mods["cli"]


def run_traced(spans_path, argv):
    tracer = Tracer()
    cli = install(tracer)
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    with open(spans_path, "w") as fh:
        json.dump({"main_thread": tracer.main_thread, "spans": tracer.spans}, fh)
    return rc


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def run_gemm(shapes_path, out_path):
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4096, 128), dtype=np.float32)
    b = rng.standard_normal((128, 4096), dtype=np.float32)
    a @ b  # BLAS thread start-up
    probe_s = _median_time(lambda: a @ b, 7)
    with open(shapes_path) as fh:
        shapes = json.load(fh)
    times = {}

    def gemm_s(rows, cols, d):
        if (rows, cols, d) not in times:
            x = rng.standard_normal((rows, d), dtype=np.float32)
            y = rng.standard_normal((d, cols), dtype=np.float32)
            x @ y
            times[rows, cols, d] = _median_time(lambda: x @ y, 3)
        return times[rows, cols, d]

    floor_s, flops = 0.0, 0.0
    for q, s, d in shapes:
        chunk = min(q, max(64, CHUNK_ELEMS // s))
        full, rest = divmod(q, chunk)
        floor_s += full * gemm_s(chunk, s, d) + (gemm_s(rest, s, d) if rest else 0.0)
        flops += 2.0 * q * s * d
    with open(out_path, "w") as fh:
        json.dump({"probe_gflops": 2.0 * 4096 * 4096 * 128 / probe_s / 1e9,
                   "floor_s": floor_s, "floor_gflop": flops / 1e9}, fh)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", required=True, help="output JSON file")
    p.add_argument("--gemm", help="JSON list of [queries, support, d] scan shapes")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    if args.gemm:
        return run_gemm(args.gemm, args.spans)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run_traced(args.spans, argv)


if __name__ == "__main__":
    sys.exit(main())
