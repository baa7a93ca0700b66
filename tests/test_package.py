"""The package's import surface: what a command loads, and the lazy top-level names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakext
from weakext import cli, core
from weakext.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = (
    "numpy",
    "numpy.ma",
    "weakext.core",
    "weakext.extension",
    "weakext.label_model",
    "weakext.experiments",
    "weakext.diagnostics",
)

# runs each argv list through cli.main in one fresh interpreter and prints,
# per call, its exit code and which HEAVY modules were loaded after it
PROBE = """
import contextlib, io, json, sys
from weakext import cli
cli.build_parser()
heavy, calls = json.loads(sys.argv[1]), json.loads(sys.argv[2])
steps = [{"code": None, "loaded": sorted(m for m in heavy if m in sys.modules)}]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    steps.append({"code": code, "loaded": sorted(m for m in heavy if m in sys.modules)})
print(json.dumps(steps))
"""


def run_python(*args):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def probe(calls):
    proc = run_python("-c", PROBE, json.dumps(HEAVY), json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("task")
    assert main(["synth", "--out", str(out), "--n", "600", "--seed", "1"]) == 0
    return out


class TestImportSet:
    def test_parser_help_usage_and_config_faults_load_no_numpy(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"prior": 0.5,')
        eval_args = ["eval", "--predictions", "p.csv", "--gold", "g.csv"]
        steps = probe([
            ["--help"],
            ["pipeline"],
            ["--config", str(tmp_path / "missing.json"), *eval_args],
            ["--config", str(bad), *eval_args],
        ])
        assert [s["code"] for s in steps] == [None, 0, 1, 2, 2]
        assert all(s["loaded"] == [] for s in steps), steps

    def test_module_help_exits_zero(self):
        proc = run_python("-m", "weakext", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: weakext") and proc.stderr == ""

    def test_tune_and_pipeline_never_load_diagnostics(self, task_dir, tmp_path):
        io_args = ["--embeddings", str(task_dir / "embeddings.emb"), "--votes", str(task_dir / "votes.csv"),
                   "--distance", "euclidean", "--prior", "0.5"]
        labels = str(task_dir / "labels.csv")
        steps = probe([
            ["tune", *io_args, "--dev-labels", labels, "--weighting", "wsum", "--grid-size", "4",
             "--grid-max", "0.2", "--refine-passes", "0", "--out", str(tmp_path / "t")],
            ["pipeline", *io_args, "--radii", "0.05", "--gold", labels, "--out", str(tmp_path / "p")],
            # the control: a command that uses diagnostics loads it
            ["diagnose", *io_args, "--dev-labels", labels, "--radii", "0.05", "--grid-size", "4",
             "--pair-budget", "1000", "--out", str(tmp_path / "d")],
        ])
        assert [s["code"] for s in steps] == [None, 0, 0, 0]
        for step in steps[1:3]:
            assert "numpy" in step["loaded"] and "weakext.diagnostics" not in step["loaded"], step
        assert "weakext.diagnostics" in steps[3]["loaded"]

    def test_scan_commands_never_load_numpy_ma(self, task_dir, tmp_path):
        # np.unique without return_* flags imports numpy.ma, some 9 ms of a
        # cold command; these runs reach every distinct-value step of the
        # scan, tune, refine and diagnose paths
        io_args = ["--embeddings", str(task_dir / "embeddings.emb"), "--votes", str(task_dir / "votes.csv"),
                   "--prior", "0.5"]
        labels = str(task_dir / "labels.csv")
        steps = probe([
            ["tune", *io_args, "--dev-labels", labels, "--weighting", "wsum", "--grid-size", "4",
             "--refine-passes", "1", "--out", str(tmp_path / "tw")],
            ["tune", *io_args, "--distance", "euclidean", "--dev-labels", labels, "--grid-size", "4",
             "--grid-max", "0.2", "--refine-passes", "1", "--out", str(tmp_path / "t1")],
            ["pipeline", *io_args, "--distance", "euclidean", "--weighting", "wsum", "--radii", "0.05",
             "--gold", labels, "--out", str(tmp_path / "p")],
            ["diagnose", *io_args, "--dev-labels", labels, "--radii", "0.05", "--grid-size", "4",
             "--pair-budget", "1000", "--out", str(tmp_path / "d")],
        ])
        assert [s["code"] for s in steps] == [None, 0, 0, 0, 0]
        assert all("numpy" in s["loaded"] and "numpy.ma" not in s["loaded"] for s in steps[1:]), steps

    def test_fit_and_predict_load_neither_the_scan_nor_its_pool(self, tmp_path):
        votes = tmp_path / "votes.csv"
        votes.write_text("1,1,-1\n-1,-1,-1\n1,0,1\n0,1,1\n1,1,1\n-1,1,-1\n")
        model = tmp_path / "fit"
        script = (
            "import contextlib, io, sys\n"
            "from weakext import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['fit', '--votes', {str(votes)!r}, '--prior', '0.5', '--out', {str(model)!r}]) == 0\n"
            f"    assert cli.main(['predict', '--votes', {str(votes)!r}, '--model', {str(model / 'model.json')!r},"
            f" '--out', {str(tmp_path / 'pred')!r}]) == 0\n"
            "print(sorted(m for m in ('weakext.extension', 'concurrent.futures', 'weakext.label_model')"
            " if m in sys.modules))\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['weakext.label_model']"

    def test_vote_statistics_are_one_object_under_each_name(self):
        from weakext import extension, label_model

        assert weakext.coverage is core.coverage is extension.coverage
        assert weakext.min_overlap is label_model.min_overlap is extension.min_overlap


# the top-level names by home module, as the package exported them eagerly
EXPORTS = {
    "core": [
        "DataError", "DegeneracyError", "EmbeddingSet", "LabelModelParams", "LabelVector", "Metric",
        "RadiusConfig", "VoteMatrix", "Weighting", "cosine_distance", "load_embeddings", "load_labels",
        "load_votes", "save_embeddings", "save_labels", "save_votes",
    ],
    "diagnostics": [
        "DiagnosticsReport", "LipschitzProfile", "default_radius_grid", "diagnose", "ensemble_risk_bound",
        "estimate_profile", "estimation_error_bound", "extended_accuracy_lower_bound",
        "extended_source_risk_bound", "generalization_lift_lower_bound", "label_smoothness_bound",
    ],
    "experiments": [
        "MetricsReport", "SweepResult", "SyntheticTask", "evaluate", "generate_checkerboard",
        "refine_radii", "sweep_radius", "theory_guided_radius", "tune_shared_radius",
    ],
    "extension": [
        "ExtensionReport", "NeighborSet", "coverage", "extend_votes", "min_overlap", "neighbors_in_support",
    ],
    "label_model": [
        "TripletAssignment", "estimate_accuracies", "majority_vote", "posterior", "predict", "select_triplets",
    ],
}


class TestLazyPackage:
    def test_every_name_is_its_home_modules_object(self):
        assert sorted(weakext.__all__) == sorted(n for names in EXPORTS.values() for n in names)
        for home, names in EXPORTS.items():
            module = importlib.import_module(f"weakext.{home}")
            for name in names:
                assert getattr(weakext, name) is getattr(module, name), name

    def test_dir_and_star_import_list_every_name(self):
        assert set(weakext.__all__) <= set(dir(weakext))
        namespace = {}
        exec("from weakext import *", namespace)
        assert {n: namespace[n] for n in weakext.__all__} == {n: getattr(weakext, n) for n in weakext.__all__}

    def test_submodules_version_and_pair_budget_stay(self):
        assert weakext.__version__ == "0.1.0"
        for home in EXPORTS:
            assert getattr(weakext, home) is importlib.import_module(f"weakext.{home}")
        assert weakext.diagnostics.DEFAULT_PAIR_BUDGET == weakext.experiments.DEFAULT_PAIR_BUDGET == 500_000

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            weakext.no_such_name  # noqa: B018

    def test_core_errors_are_the_classes_main_catches(self, tmp_path, capsys):
        assert cli.DataError is core.DataError and cli.DegeneracyError is core.DegeneracyError
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"not a header\n")
        args = ["extend", "--embeddings", str(bad), "--votes", str(tmp_path / "v.csv"), "--radii", "0.1",
                "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: data: {bad}: bad embedding header line")
