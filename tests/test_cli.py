"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import argparse
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from weakext.cli import build_parser, main
from weakext.core import EmbeddingSet, LabelVector, VoteMatrix, save_embeddings, save_labels, save_votes


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "weakext", *map(str, args)],
        capture_output=True,
        text=True,
    )
    return proc


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("task")
    rc = main([
        "synth", "--out", str(out), "--n", "2500", "--cells", "10", "--seed", "3",
        "--accuracies", "0.89,0.8,0.8", "--support-fractions", "0.1,1.0,1.0",
    ])
    assert rc == 0
    return out


def pipeline_args(task_dir, out, radii="0.08", extra=()):
    return [
        "pipeline",
        "--embeddings", str(task_dir / "embeddings.emb"),
        "--votes", str(task_dir / "votes.csv"),
        "--prior", "0.5",
        "--radii", radii,
        "--distance", "euclidean",
        "--gold", str(task_dir / "labels.csv"),
        "--out", str(out),
        *extra,
    ]


class TestPipeline:
    def test_zero_radii_reproduces_baseline(self, task_dir, tmp_path):
        out = tmp_path / "run0"
        assert main(pipeline_args(task_dir, out, radii="0")) == 0
        ext = (out / "extended_votes.csv").read_bytes()
        assert ext == (task_dir / "votes.csv").read_bytes()

    def test_extension_beats_baseline_at_known_radius(self, task_dir, tmp_path):
        base = tmp_path / "base"
        run = tmp_path / "ext"
        assert main(pipeline_args(task_dir, base, radii="0")) == 0
        assert main(pipeline_args(task_dir, run, radii="0.08")) == 0
        m0 = json.loads((base / "metrics.json").read_text())["accuracy"]
        m1 = json.loads((run / "metrics.json").read_text())["accuracy"]
        assert m1 > m0

    def test_byte_identical_across_runs_and_threads(self, task_dir, tmp_path):
        runs = []
        for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / name
            rc = main(pipeline_args(task_dir, out, extra=("--threads", threads)))
            assert rc == 0
            runs.append(tree_bytes(out))
        assert runs[0] == runs[1] == runs[2]

    def test_similarity_thresholds_equal_converted_radii(self, task_dir, tmp_path):
        # s = 0.875 converts to exactly r = 0.125 in binary floating point
        a, b = tmp_path / "r", tmp_path / "s"
        assert main(pipeline_args(task_dir, a, radii="0.125")) == 0
        args = pipeline_args(task_dir, b, radii="0.125")
        i = args.index("--radii")
        args[i : i + 2] = ["--similarity-thresholds", "0.875"]
        assert main(args) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_dev_labels_metric_fallback(self, task_dir, tmp_path):
        out = tmp_path / "dev"
        args = pipeline_args(task_dir, out)
        args.remove("--gold")
        args.remove(str(task_dir / "labels.csv"))
        args += ["--dev-labels", str(task_dir / "labels.csv")]
        assert main(args) == 0
        assert (out / "metrics.json").exists()

    def test_majority_baseline_artifact(self, task_dir, tmp_path):
        out = tmp_path / "mv"
        assert main(pipeline_args(task_dir, out, extra=("--majority-baseline",))) == 0
        assert (out / "majority_labels.csv").exists()


class TestStagedCommands:
    def test_extend_fit_predict_chain_matches_pipeline(self, task_dir, tmp_path):
        pipe = tmp_path / "pipe"
        assert main(pipeline_args(task_dir, pipe)) == 0

        ext_dir, fit_dir, pred_dir = tmp_path / "e", tmp_path / "f", tmp_path / "p"
        assert main([
            "extend", "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"), "--radii", "0.08",
            "--distance", "euclidean", "--out", str(ext_dir),
        ]) == 0
        assert (ext_dir / "extended_votes.csv").read_bytes() == (pipe / "extended_votes.csv").read_bytes()
        assert main([
            "fit", "--votes", str(ext_dir / "extended_votes.csv"),
            "--prior", "0.5", "--out", str(fit_dir),
        ]) == 0
        assert (fit_dir / "model.json").read_bytes() == (pipe / "model.json").read_bytes()
        assert main([
            "predict", "--votes", str(ext_dir / "extended_votes.csv"),
            "--model", str(fit_dir / "model.json"), "--out", str(pred_dir),
        ]) == 0
        assert (pred_dir / "posteriors.csv").read_bytes() == (pipe / "posteriors.csv").read_bytes()
        assert (pred_dir / "hard_labels.csv").read_bytes() == (pipe / "hard_labels.csv").read_bytes()

    def test_posteriors_are_one_float_repr_per_line(self, tmp_path):
        from weakext.cli import _write_posteriors

        _write_posteriors(np.array([0.1, 1.0, 1e-300, 0.5, 2.0 / 3.0]), tmp_path / "q.csv")
        assert (tmp_path / "q.csv").read_bytes() == b"0.1\n1.0\n1e-300\n0.5\n0.6666666666666666\n"
        _write_posteriors(np.array([]), tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b""

    def test_posteriors_match_a_per_value_join(self, tmp_path):
        from weakext.cli import _write_posteriors

        rng = np.random.default_rng(19)
        repeated = rng.choice([0.25, 1 / 3, 0.0, -0.0, 1e-300, 5e-324, np.nan, np.inf], 600)
        arbitrary = rng.integers(0, 2**64, 100, dtype=np.uint64, endpoint=False).view(np.float64)
        q = rng.permutation(np.concatenate([rng.random(400), repeated, arbitrary]))
        assert (q == 0).sum() > 100 and np.signbit(q[q == 0]).any() and not np.signbit(q[q == 0]).all()
        _write_posteriors(q, tmp_path / "q.csv")
        assert (tmp_path / "q.csv").read_text() == "\n".join(map(repr, q.tolist())) + "\n"

    def test_eval_prints_metrics(self, task_dir, tmp_path):
        pipe = tmp_path / "pipe"
        assert main(pipeline_args(task_dir, pipe)) == 0
        proc = run_cli(
            "eval", "--predictions", str(pipe / "hard_labels.csv"),
            "--gold", str(task_dir / "labels.csv"),
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) >= {"accuracy", "precision", "recall", "f1"}

    def test_tune_then_pipeline_via_radius_config(self, task_dir, tmp_path):
        tune_dir = tmp_path / "tuned"
        assert main([
            "tune", "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"),
            "--dev-labels", str(task_dir / "labels.csv"),
            "--prior", "0.5", "--distance", "euclidean",
            "--grid-size", "8", "--out", str(tune_dir),
        ]) == 0
        config = json.loads((tune_dir / "radius_config.json").read_text())
        assert len(config["radii"]) == 3
        run = tmp_path / "tuned_run"
        args = pipeline_args(task_dir, run)
        i = args.index("--radii")
        args[i : i + 2] = ["--radius-config", str(tune_dir / "radius_config.json")]
        assert main(args) == 0
        base = tmp_path / "tuned_base"
        assert main(pipeline_args(task_dir, base, radii="0")) == 0
        m_base = json.loads((base / "metrics.json").read_text())["accuracy"]
        m_tuned = json.loads((run / "metrics.json").read_text())["accuracy"]
        assert m_tuned >= m_base

    def test_diagnose_writes_report(self, task_dir, tmp_path):
        out = tmp_path / "diag"
        assert main([
            "diagnose", "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"),
            "--dev-labels", str(task_dir / "labels.csv"),
            "--prior", "0.5", "--radii", "0.08", "--distance", "euclidean",
            "--grid-size", "8", "--pair-budget", "20000",
            "--profile-csv", str(out / "profile.csv"), "--out", str(out),
        ]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert len(report["sources"]) == 3
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0].startswith("radius,pair_fraction,label_disagreement")
        assert len(lines) == 9

    def test_config_file_provides_defaults(self, task_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": 0.5, "distance": "euclidean", "radii": "0.08"}))
        out = tmp_path / "cfgrun"
        rc = main([
            "--config", str(cfg), "pipeline",
            "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"),
            "--gold", str(task_dir / "labels.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        ref = tmp_path / "cfgref"
        assert main(pipeline_args(task_dir, ref)) == 0
        assert (out / "metrics.json").read_bytes() == (ref / "metrics.json").read_bytes()


class TestErrorHandling:
    def test_missing_prior_and_dev_labels(self, task_dir):
        proc = run_cli(
            "pipeline", "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"), "--radii", "0.1", "--out", "/tmp/x",
        )
        assert proc.returncode == 1
        assert "class balance prior required" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_usage_error_on_conflicting_radii(self, task_dir, tmp_path):
        proc = run_cli(
            "pipeline", "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"), "--prior", "0.5",
            "--radii", "0.1", "--similarity-thresholds", "0.9",
            "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 1

    @pytest.mark.parametrize("weighting", ["1nn", "wsum"])
    @pytest.mark.parametrize("grid", ["-0.1,0.2", "0.2,nan"])
    def test_bad_tune_grid_is_data_error(self, task_dir, tmp_path, grid, weighting):
        rc = main([
            "tune", "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"),
            "--dev-labels", str(task_dir / "labels.csv"),
            "--prior", "0.5", "--distance", "euclidean", "--weighting", weighting,
            f"--grid={grid}", "--refine-passes", "0", "--out", str(tmp_path / "t"),
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "grid, rc, message",
        [
            ("0.2,nan", 2, "radius grid must be strictly ascending"),
            ("nan", 2, "radius grid must be strictly ascending"),
            ("0.3,0.2", 2, "radius grid must be strictly ascending"),
            (",", 1, "--grid must be nonempty"),
        ],
    )
    def test_diagnose_refuses_a_bad_grid_before_reading_any_file(self, tmp_path, capsys, grid, rc, message):
        # these files do not exist: a missing-file error would mean the
        # command read its inputs before it looked at the grid
        args = ["diagnose", "--embeddings", str(tmp_path / "none.emb"), "--votes", str(tmp_path / "none.csv"),
                "--dev-labels", str(tmp_path / "none_labels.csv"), "--prior", "0.5", "--radii", "0.1",
                f"--grid={grid}", "--out", str(tmp_path / "o")]
        assert main(args) == rc
        err = capsys.readouterr().err
        assert message in err and "No such file" not in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        # refused before any input is read (these files do not exist: a data
        # error, exit 2, would mean the command ran), so no thread starts
        args = ["pipeline", "--embeddings", str(tmp_path / "none.emb"), "--votes", str(tmp_path / "none.csv"),
                "--prior", "0.5", "--radii", "0.1", "--out", str(tmp_path / "o")]
        assert main([*args, f"--threads={threads}"]) == 1
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": threads}))
        assert main(["--config", str(cfg), *args]) == 1
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("bad.json", '{"prior": 0.5,',
             "{path}: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 15 (char 14)"),
            ("list.json", "[1, 2]\n", "{path}: config must be a JSON object"),
            ("missing.json", None, "[Errno 2] No such file or directory: '{path}'"),
        ],
    )
    def test_config_fault_is_data_error(self, tmp_path, name, text, message):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        proc = run_cli("--config", path, "eval", "--predictions", tmp_path / "p.csv", "--gold", tmp_path / "g.csv")
        assert proc.returncode == 2
        assert proc.stderr == "error: data: " + message.format(path=path) + "\n"
        assert proc.stdout == ""

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n")
        proc = run_cli("fit", "--votes", str(bad), "--prior", "0.5", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: data:")

    def test_degeneracy_exit_code(self, tmp_path):
        two = tmp_path / "two.csv"
        two.write_text("1,-1\n-1,1\n1,1\n")
        proc = run_cli("fit", "--votes", str(two), "--prior", "0.5", "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: degeneracy:")

    def test_missing_file_is_data_error(self, tmp_path):
        proc = run_cli("fit", "--votes", str(tmp_path / "nope.csv"), "--prior", "0.5",
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_fit_flip_source(self, tmp_path):
        rng = np.random.default_rng(0)
        y = np.where(rng.random(4000) < 0.5, 1, -1)
        votes = np.empty((4000, 3), dtype=np.int8)
        for j, a in enumerate((0.9, 0.8, 0.2)):
            votes[:, j] = np.where(rng.random(4000) < a, y, -y)
        lines = "\n".join(",".join(str(v) for v in row) for row in votes)
        path = tmp_path / "votes.csv"
        path.write_text(lines + "\n")
        out = tmp_path / "flip"
        assert main([
            "fit", "--votes", str(path), "--prior", "0.5",
            "--flip-source", "2", "--out", str(out),
        ]) == 0
        model = json.loads((out / "model.json").read_text())
        assert model["accuracies"][2] < 0.5 < model["accuracies"][0]


class TestTuneTakesNoRadius:
    def tune_args(self, task_dir, out):
        return [
            "tune", "--embeddings", str(task_dir / "embeddings.emb"),
            "--votes", str(task_dir / "votes.csv"),
            "--dev-labels", str(task_dir / "labels.csv"),
            "--prior", "0.5", "--distance", "euclidean",
            "--grid-size", "4", "--refine-passes", "0", "--out", str(out),
        ]

    @pytest.mark.parametrize("flag, value", [("--radii", "0.3"), ("--similarity-thresholds", "0.9"),
                                             ("--radius-config", "radius_config.json")])
    def test_tune_refuses_the_radius_flags(self, task_dir, tmp_path, capsys, flag, value):
        assert main([*self.tune_args(task_dir, tmp_path / "t"), flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_a_config_holding_radii_still_runs_tune_and_pipeline(self, task_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radii": "0.3"}))
        assert main(["--config", str(cfg), *self.tune_args(task_dir, tmp_path / "t")]) == 0
        args = pipeline_args(task_dir, tmp_path / "p")
        i = args.index("--radii")
        del args[i : i + 2]
        assert main(["--config", str(cfg), *args]) == 0
        report = json.loads((tmp_path / "p" / "extension_report.json").read_text())
        assert report["radii"] == [0.3, 0.3, 0.3]


def read_args(argv) -> set:
    """Runs ``main(argv)`` and returns the names its command read off the parsed arguments."""
    reads, parsed = set(), []

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            if parsed:  # argparse's own reads while parsing do not count
                reads.add(name)
            return super().__getattribute__(name)

    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, args=None, namespace=None):
        ns = parse_args(self, args, Recorder())
        parsed.append(True)
        return ns

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
        assert main(argv) == 0
    return reads


@pytest.fixture(scope="module")
def command_reads(tmp_path_factory):
    """Each command run once on a small task with its options given (one of the three exclusive radius flags)."""
    root = tmp_path_factory.mktemp("audit")
    t = root / "task"
    io = ["--embeddings", str(t / "embeddings.emb"), "--votes", str(t / "votes.csv")]
    dev = ["--dev-labels", str(t / "labels.csv"), "--prior", "0.5"]
    scan = ["--weighting", "1nn", "--distance", "euclidean", "--threads", "1"]
    grid = ["--grid-min", "0.02", "--grid-max", "0.2", "--grid-size", "4"]
    runs = {
        "synth": ["synth", "--out", str(t), "--n", "400", "--cells", "4", "--layout", "random", "--sources", "3",
                  "--accuracies", "0.9,0.8,0.8", "--support-fractions", "0.3,0.3,0.3", "--seed", "1"],
        "extend": ["extend", *io, "--radii", "0.05", *scan, "--out", str(root / "extend")],
        "fit": ["fit", "--votes", str(t / "votes.csv"), *dev, "--flip-source", "2", "--out", str(root / "fit")],
        "predict": ["predict", "--votes", str(t / "votes.csv"), "--model", str(root / "fit" / "model.json"),
                    "--out", str(root / "predict")],
        "eval": ["eval", "--predictions", str(root / "predict" / "hard_labels.csv"), "--gold", str(t / "labels.csv"),
                 "--out", str(root / "eval")],
        "tune": ["tune", *io, *dev, *scan, *grid, "--metric", "accuracy", "--refine-passes", "1",
                 "--out", str(root / "tune")],
        "diagnose": ["diagnose", *io, *dev, "--similarity-thresholds", "0.95", *scan, *grid,
                     "--pair-budget", "2000", "--seed", "1", "--delta", "0.1",
                     "--profile-csv", str(root / "profile.csv"), "--out", str(root / "diagnose")],
        "pipeline": ["pipeline", *io, *dev, "--radius-config", str(root / "tune" / "radius_config.json"), *scan,
                     "--gold", str(t / "labels.csv"), "--metric", "accuracy", "--majority-baseline",
                     "--out", str(root / "pipeline")],
    }
    return {name: read_args(argv) for name, argv in runs.items()}


@pytest.mark.parametrize("command", ["synth", "extend", "fit", "predict", "eval", "tune", "diagnose", "pipeline"])
def test_every_option_is_read_by_its_command(command_reads, command):
    parser = build_parser().command_parsers[command]
    dests = {a.dest for a in parser._actions} - {"help", "config", "command", "func"}
    assert dests - command_reads[command] == set()


def test_the_audit_runs_every_command(command_reads):
    assert set(build_parser().command_parsers) == set(command_reads)


class TestPipelineMemory:
    @staticmethod
    def write_task(root, n, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 16))
        gold = np.where(x @ rng.standard_normal(16) >= 0, 1, -1)
        votes = np.zeros((n, 3), dtype=np.int8)
        for j in range(3):
            covered = rng.random(n) < 0.3
            right = rng.random(n) < 0.8
            votes[covered, j] = np.where(right, gold, -gold)[covered]
        root.mkdir()
        save_embeddings(EmbeddingSet(x), root / "embeddings.emb")
        save_votes(VoteMatrix(votes), root / "votes.csv")
        save_labels(LabelVector(gold), root / "labels.csv")
        return root

    @pytest.mark.parametrize("weighting", ["1nn", "wsum"])
    def test_peak_grows_no_faster_than_the_rows(self, tmp_path, weighting):
        # what grows as queries x support would read about 16 times the peak at n
        def peak(task, out):
            args = ["pipeline", "--embeddings", str(task / "embeddings.emb"), "--votes", str(task / "votes.csv"),
                    "--prior", "0.5", "--radii", "0.5", "--distance", "cosine", "--weighting", weighting,
                    "--threads", "1", "--gold", str(task / "labels.csv"), "--out", str(out)]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = self.write_task(tmp_path / "small", 2000)
        large = self.write_task(tmp_path / "large", 8000)
        peak(small, tmp_path / "warm")
        p_small, p_large = peak(small, tmp_path / "s"), peak(large, tmp_path / "l")
        assert p_large <= 4 * p_small, (p_small, p_large)
