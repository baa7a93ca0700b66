"""Self-test of the benchmark's own checks and arithmetic.

    python3 perfbench/selftest.py

Runs one small pipeline through the real CLI, then alters its artifacts
and asserts that every alteration is counted as a failed operation.
Also checks the span self-time rules and the tail-percentile rule on
hand-made inputs.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import numpy as np

import run
import workloads as wl


def test_self_time():
    main, worker = 1, 2
    doc = {"spans": [
        {"id": 0, "parent": None, "name": "cli.main", "thread": main, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "extension.extend_votes", "thread": main, "start": 1.0, "end": 9.0},
        {"id": 2, "parent": 1, "name": "core.paired_distances", "thread": worker, "start": 2.0, "end": 5.0},
        {"id": 3, "parent": 1, "name": "extension.coverage", "thread": main, "start": 8.0, "end": 8.5},
    ]}
    st = run.span_stats(doc)
    assert st["cli.main"]["self_s"] == 2.0
    # the worker-thread child does not reduce its caller's self time
    assert st["extension.extend_votes"]["self_s"] == 7.5
    assert st["core.paired_distances"]["self_s"] == 3.0


def test_prep_counted_once():
    main, w1, w2 = 1, 2, 3

    def span(i, parent, name, thread, start, end, **kw):
        return {"id": i, "parent": parent, "name": name, "thread": thread, "start": start, "end": end, **kw}

    # two workers build the same set's unit32 (and its unit) at once
    doc = {"spans": [
        span(0, None, "cli.main", main, 0.0, 10.0),
        span(1, 0, "extension.extend_votes", main, 1.0, 9.0),
        span(2, 1, "core.EmbeddingSet.unit32", w1, 2.0, 4.0, set=7),
        span(3, 2, "core.EmbeddingSet.unit", w1, 2.0, 3.0, set=7),
        span(4, 1, "core.EmbeddingSet.unit32", w2, 2.1, 4.1, set=7),
        span(5, 4, "core.EmbeddingSet.unit", w2, 2.1, 3.1, set=7),
    ]}
    st = run.span_stats(doc)
    assert st["core.EmbeddingSet.unit32"] == {"calls": 1, "total_s": 2.0, "self_s": 1.0}
    assert st["core.EmbeddingSet.unit"]["calls"] == 1
    # the first build leaves the scan's self time; the overlapping one stays
    assert st["extension.extend_votes"]["self_s"] == 6.0
    assert st["cli.main"]["self_s"] == 2.0


def test_tail():
    assert run.summarize([3.0, 1.0, 2.0])["tail"] is None
    s = run.summarize([float(i) for i in range(20)])
    # ten samples (10..19) lie beyond the reported one
    assert s["tail"] == 9.0 and s["tail_pct"] == 50.0 and s["median"] == 9.5


def _flip_first_sampled_vote(bench, out):
    j, rows, _ = bench.oracle[0]
    path = out / "extended_votes.csv"
    ext = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)
    ext[rows[0], j] = 1 if ext[rows[0], j] != 1 else -1
    np.savetxt(path, ext, fmt="%d", delimiter=",")


def test_altered_artifacts_fail():
    w = dataclasses.replace(wl.WORKLOADS["c7-1nn"], name="selftest-c7", n=1200)
    bench = run.Workbench(w, seed=3)
    try:
        bench.cycle()
        led = bench.ledger
        assert (led.attempted, led.failed) == (1, 0), led.problems
        out = bench.dir / "out" / "pipeline"
        keep = bench.dir / "pristine"
        shutil.copytree(out, keep)

        # a changed vote breaks the digest against the run's first execution
        _flip_first_sampled_vote(bench, out)
        bench.check("pipeline", out, "altered vote")
        assert led.failed == 1 and "differ" in led.problems[-1]

        # without a reference digest the float64 oracle still catches it
        bench.ledger = run.Ledger({})
        bench.check("pipeline", out, "altered vote, no reference")
        assert bench.ledger.failed == 1 and "oracle" in bench.ledger.problems[-1]

        # an altered metrics file disagrees with the hard labels it scores
        bench.ledger = run.Ledger({})
        shutil.rmtree(out)
        shutil.copytree(keep, out)
        (out / "metrics.json").write_text('{"accuracy": 0.5}\n')
        bench.check("pipeline", out, "altered metrics")
        assert bench.ledger.failed == 1, bench.ledger.problems

        # a recorded digest that does not match counts too
        bench.ledger = run.Ledger({"pipeline": "0" * 64})
        shutil.rmtree(out)
        shutil.copytree(keep, out)
        bench.check("pipeline", out, "unrecorded digest")
        assert bench.ledger.failed == 1 and "recorded" in bench.ledger.problems[-1]

        # a missing file
        bench.ledger = run.Ledger({})
        (out / "posteriors.csv").unlink()
        bench.check("pipeline", out, "missing file")
        assert bench.ledger.failed == 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)


def main() -> int:
    tests = [test_self_time, test_prep_counted_once, test_tail, test_altered_artifacts_fail]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
