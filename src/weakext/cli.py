"""Command-line pipeline: synth, extend, fit, predict, tune, diagnose, eval.

All inputs are explicit flags (or a JSON config file whose entries serve
as flag defaults).  Outputs are byte-deterministic given identical
inputs and seeds; wall-clock timings go to stdout only.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric degeneracy.

The parser and the dispatch import no numpy: each command imports the
modules it uses, so ``--help``, usage errors and ``--config`` faults
answer before numpy loads, and no command compiles a module it skips.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ._base import DEFAULT_PAIR_BUDGET, DataError, DegeneracyError, Metric, Weighting

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None


def _write_posteriors(q, path) -> None:
    """One ``repr`` per line; each distinct value is formatted once, keyed on its bits (``-0.0`` is not ``0.0``)."""
    import numpy as np

    bits = np.ascontiguousarray(q, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    lines = [repr(v) + "\n" for v in keys.view(np.float64).tolist()]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("".join(map(lines.__getitem__, inverse.tolist())))


def _parse_float_list(text: str, name: str):
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"{name} must be a comma-separated list of numbers, got {text!r}") from None


def _resolve_radii(args, m: int):
    import numpy as np

    from .core import RadiusConfig

    has_r = args.radii is not None
    has_s = args.similarity_thresholds is not None
    has_c = args.radius_config is not None
    if has_r + has_s + has_c != 1:
        raise UsageError(
            "exactly one of --radii, --similarity-thresholds, or --radius-config is required"
        )
    weighting = Weighting(args.weighting)
    if has_c:
        config = RadiusConfig.from_dict(_read_json(args.radius_config))
        if config.radii.shape[0] != m:
            raise DataError(
                f"{args.radius_config}: has {config.radii.shape[0]} radii for {m} sources"
            )
        return config
    flag = "--radii" if has_r else "--similarity-thresholds"
    vals = _parse_float_list(args.radii if has_r else args.similarity_thresholds, flag)
    if len(vals) == 1:
        vals = vals * m
    if len(vals) != m:
        raise UsageError(f"{flag} needs 1 or {m} values, got {len(vals)}")
    make = RadiusConfig if has_r else RadiusConfig.from_similarities
    return make(np.asarray(vals), weighting)


def _resolve_prior(args, dev) -> float:
    if args.prior is not None:
        if not (0.0 < args.prior < 1.0):
            raise UsageError(f"--prior must lie strictly in (0, 1), got {args.prior}")
        return float(args.prior)
    if dev is not None:
        pos = int((dev.labels == 1).sum())
        return (pos + 1.0) / (dev.n + 2.0)  # smoothed so the prior stays in (0, 1)
    raise UsageError("class balance prior required: pass --prior or --dev-labels")


def _resolve_grid(args):
    import numpy as np

    if args.grid:
        vals = np.asarray(_parse_float_list(args.grid, "--grid"))
        if vals.size == 0:
            raise UsageError("--grid must be nonempty")
        return vals
    # diagnostics.default_radius_grid, which tune does not import
    return np.geomspace(args.grid_min, args.grid_max, args.grid_size)


def _load_dev(args):
    from .core import load_labels

    if args.dev_labels:
        return load_labels(args.dev_labels)
    return None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common_io(p, votes=True, embeddings=True, dev=True):
    if embeddings:
        p.add_argument("--embeddings", required=True, help="path to the .emb embedding file")
    if votes:
        p.add_argument("--votes", required=True, help="path to the votes CSV")
    if dev:
        p.add_argument("--dev-labels", help="labels CSV for the first rows of the dataset")


def _add_radius_flags(p):
    p.add_argument("--radii", help="extension radius, single value or one per source")
    p.add_argument(
        "--similarity-thresholds",
        help="cosine-similarity thresholds s, converted to radii 1 - s",
    )
    p.add_argument("--radius-config", help="RadiusConfig JSON (as written by tune)")


def _add_scan_flags(p):
    p.add_argument("--weighting", choices=[w.value for w in Weighting], default="1nn")
    p.add_argument("--distance", choices=[m.value for m in Metric], default="cosine")
    p.add_argument("--threads", type=int, default=None)


def _add_grid_flags(p):
    p.add_argument("--grid", help="explicit comma-separated radius grid")
    p.add_argument("--grid-min", type=float, default=0.01)
    p.add_argument("--grid-max", type=float, default=1.0)
    p.add_argument("--grid-size", type=int, default=32)


def build_parser() -> _Parser:
    parser = _Parser(prog="weakext", description=__doc__)
    parser.add_argument("--config", help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.command_parsers = sub.choices  # argparse's own map of command name to parser

    p = sub.add_parser("synth", help="generate a synthetic planar task")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--cells", type=int, default=10)
    p.add_argument("--layout", choices=["checkerboard", "random"], default="checkerboard")
    p.add_argument("--sources", type=int, default=3)
    p.add_argument("--accuracies", default="0.89,0.8,0.8")
    p.add_argument("--support-fractions", default="0.2,0.15,0.15")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extend", help="extend votes through embedding space")
    _add_common_io(p, dev=False)
    _add_radius_flags(p)
    _add_scan_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("fit", help="fit the label model on a vote matrix")
    _add_common_io(p, embeddings=False)
    p.add_argument("--prior", type=float)
    p.add_argument("--flip-source", type=int, action="append", default=[],
                   help="treat this source as worse than random (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posteriors and hard labels from a fitted model")
    _add_common_io(p, embeddings=False, dev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tune", help="tune extension radii on a labeled dev set")
    _add_common_io(p)
    _add_scan_flags(p)
    _add_grid_flags(p)
    p.add_argument("--prior", type=float)
    p.add_argument("--metric", choices=["accuracy", "f1", "auto"], default="auto")
    p.add_argument("--refine-passes", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("diagnose", help="smoothness profiles and bound evaluation")
    _add_common_io(p)
    _add_radius_flags(p)
    _add_scan_flags(p)
    _add_grid_flags(p)
    p.add_argument("--prior", type=float)
    p.add_argument(
        "--pair-budget",
        type=int,
        default=DEFAULT_PAIR_BUDGET,
        help="point pairs sampled for the smoothness profile (all pairs if fewer); "
        "they are streamed in fixed-size chunks, so memory does not grow with it",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--profile-csv", help="also export the profile as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="extend, fit, predict, and evaluate in one run")
    _add_common_io(p)
    _add_radius_flags(p)
    _add_scan_flags(p)
    p.add_argument("--prior", type=float)
    p.add_argument("--gold", help="gold labels CSV for evaluation over all rows")
    p.add_argument("--metric", choices=["accuracy", "f1", "auto"], default="auto")
    p.add_argument("--majority-baseline", action="store_true",
                   help="also write majority-vote predictions")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    from .core import save_embeddings, save_labels, save_votes
    from .experiments import generate_checkerboard

    out = _out_dir(args)
    acc = _parse_float_list(args.accuracies, "--accuracies")
    frac = _parse_float_list(args.support_fractions, "--support-fractions")
    task = generate_checkerboard(
        args.n, args.cells, args.sources, acc, frac, args.seed, layout=args.layout
    )
    save_embeddings(task.embeddings, out / "embeddings.emb")
    save_votes(task.votes, out / "votes.csv")
    save_labels(task.gold, out / "labels.csv")
    _write_json(
        {
            "n": args.n,
            "cells": args.cells,
            "layout": args.layout,
            "sources": args.sources,
            "accuracies": acc,
            "support_fractions": frac,
            "seed": args.seed,
            "distance": "euclidean",
        },
        out / "task.json",
    )
    print(f"wrote synthetic task to {out}")
    return 0


def cmd_extend(args) -> int:
    from .core import load_embeddings, load_votes, save_votes
    from .extension import extend_votes

    out = _out_dir(args)
    emb = load_embeddings(args.embeddings)
    votes = load_votes(args.votes)
    config = _resolve_radii(args, votes.m)
    t0 = time.perf_counter()
    ext, report = extend_votes(emb, votes, config, metric=Metric(args.distance), threads=args.threads)
    print(f"extend_seconds={time.perf_counter() - t0:.3f}")
    save_votes(ext, out / "extended_votes.csv")
    _write_json(report.to_dict(), out / "extension_report.json")
    return 0


def cmd_fit(args) -> int:
    from .core import load_votes
    from .label_model import estimate_accuracies

    out = _out_dir(args)
    votes = load_votes(args.votes)
    dev = _load_dev(args)
    prior = _resolve_prior(args, dev)
    t0 = time.perf_counter()
    params = estimate_accuracies(votes, prior, flip_sources=tuple(args.flip_source))
    print(f"fit_seconds={time.perf_counter() - t0:.3f}")
    _write_json(params.to_dict(), out / "model.json")
    return 0


def cmd_predict(args) -> int:
    from .core import LabelModelParams, load_votes, save_labels
    from .label_model import predict

    out = _out_dir(args)
    votes = load_votes(args.votes)
    params = LabelModelParams.from_dict(_read_json(args.model))
    q, hard = predict(votes, params)
    _write_posteriors(q, out / "posteriors.csv")
    save_labels(hard, out / "hard_labels.csv")
    return 0


def cmd_tune(args) -> int:
    import numpy as np

    from .core import RadiusConfig, load_embeddings, load_votes
    from .experiments import _extendable, refine_radii, tune_shared_radius

    out = _out_dir(args)
    emb = load_embeddings(args.embeddings)
    votes = load_votes(args.votes)
    dev = _load_dev(args)
    if dev is None:
        raise UsageError("tune requires --dev-labels")
    prior = _resolve_prior(args, dev)
    grid = _resolve_grid(args)
    metric = Metric(args.distance)
    weighting = Weighting(args.weighting)
    shared = tune_shared_radius(
        emb, votes, dev, prior, grid,
        metric=metric, weighting=weighting, tune_metric=args.metric, threads=args.threads,
    )
    if shared.note:
        print(f"note: {shared.note}")
    result = {
        "shared_radius": shared.radius,
        "metric_name": shared.metric_name,
        "shared_metric": shared.metric_value,
        "note": shared.note,
    }
    if args.refine_passes > 0 and shared.note is None:
        refined = refine_radii(
            emb, votes, dev, prior, shared.radius,
            passes=args.refine_passes, metric=metric, weighting=weighting,
            tune_metric=args.metric, threads=args.threads,
        )
        config = refined.config
        result["refined_metric"] = refined.metric_value
    else:
        radii = np.zeros(votes.m)
        radii[_extendable(votes)] = shared.radius
        config = RadiusConfig(radii, weighting)
    _write_json(config.to_dict(), out / "radius_config.json")
    if shared.radii is not None:
        with open(out / "tuning_curve.csv", "w", encoding="ascii", newline="\n") as fh:
            fh.write("radius,metric\n")
            for r, v in zip(shared.radii, shared.metric_curve):
                fh.write(f"{r!r},{v!r}\n")
    _write_json(result, out / "tuning_summary.json")
    return 0


def cmd_diagnose(args) -> int:
    from .core import load_embeddings, load_votes
    from .diagnostics import check_radius_grid, curves_cap, diagnose
    from .extension import extend_from_tables, extend_votes, neighbor_tables
    from .label_model import estimate_accuracies

    grid = check_radius_grid(_resolve_grid(args))  # before any file is read
    out = _out_dir(args)
    emb = load_embeddings(args.embeddings)
    votes = load_votes(args.votes)
    dev = _load_dev(args)
    if dev is None:
        raise UsageError(
            "diagnose requires --dev-labels (label disagreement rates need gold labels)"
        )
    prior = _resolve_prior(args, dev)
    config = _resolve_radii(args, votes.m)
    metric = Metric(args.distance)
    tables = None
    if config.weighting is Weighting.ONE_NEAREST_NEIGHBOR:  # one scan serves extension and curves
        grids = {j: [max(float(r), curves_cap(grid))] for j, r in enumerate(config.radii)}  # each read up to its cap
        tables = neighbor_tables(emb, votes, grids, config.weighting, metric, args.threads)
        ext, report = extend_from_tables(votes, config, tables)
    else:
        ext, report = extend_votes(emb, votes, config, metric=metric, threads=args.threads)
    params = estimate_accuracies(votes, prior)
    diag = diagnose(
        emb, votes, ext, dev, params, config,
        report=report, metric=metric, radii=grid,
        pair_budget=args.pair_budget, seed=args.seed, delta=args.delta,
        threads=args.threads, tables=tables,
    )
    _write_json(diag.to_dict(), out / "diagnostics.json")
    if args.profile_csv:
        _write_profile_csv(diag.to_dict(), args.profile_csv)
    return 0


def _write_profile_csv(data: dict, path) -> None:
    grid = data["radius_grid"]
    prof = data["profile"]
    m = len(prof["support_disagreement"])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        cols = ["radius", "pair_fraction", "label_disagreement"]
        cols += [f"support_disagreement_{j}" for j in range(m)]
        fh.write(",".join(cols) + "\n")
        for k, r in enumerate(grid):
            row = [r, prof["pair_fraction"][k], prof["label_disagreement"][k]]
            row += [prof["support_disagreement"][j][k] for j in range(m)]
            fh.write(",".join("" if v is None else repr(float(v)) for v in row) + "\n")


def cmd_eval(args) -> int:
    from .core import load_labels
    from .experiments import evaluate

    pred = load_labels(args.predictions)
    gold = load_labels(args.gold)
    rep = evaluate(pred, gold)
    text = json.dumps(rep.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = _out_dir(args)
        _write_json(rep.to_dict(), out / "metrics.json")
    return 0


def cmd_pipeline(args) -> int:
    from .core import LabelVector, load_embeddings, load_labels, load_votes, save_labels, save_votes
    from .experiments import _resolve_metric_name, evaluate
    from .extension import extend_votes
    from .label_model import estimate_accuracies, majority_vote, predict

    out = _out_dir(args)
    emb = load_embeddings(args.embeddings)
    votes = load_votes(args.votes)
    dev = _load_dev(args)
    prior = _resolve_prior(args, dev)
    config = _resolve_radii(args, votes.m)
    metric = Metric(args.distance)

    t0 = time.perf_counter()
    ext, report = extend_votes(emb, votes, config, metric=metric, threads=args.threads)
    t_extend = time.perf_counter() - t0
    save_votes(ext, out / "extended_votes.csv")
    _write_json(report.to_dict(), out / "extension_report.json")

    t0 = time.perf_counter()
    params = estimate_accuracies(ext, prior)
    t_fit = time.perf_counter() - t0
    _write_json(params.to_dict(), out / "model.json")

    t0 = time.perf_counter()
    q, hard = predict(ext, params)
    t_predict = time.perf_counter() - t0
    _write_posteriors(q, out / "posteriors.csv")
    save_labels(hard, out / "hard_labels.csv")
    if args.majority_baseline:
        save_labels(majority_vote(ext, prior), out / "majority_labels.csv")

    print(f"extend_seconds={t_extend:.3f}")
    print(f"fit_seconds={t_fit:.3f}")
    print(f"predict_seconds={t_predict:.3f}")

    gold = load_labels(args.gold) if args.gold else None
    if gold is not None:
        rep = evaluate(hard, gold)
    elif dev is not None:
        rep = evaluate(LabelVector(hard.labels[: dev.n]), dev)
    else:
        rep = None
    if rep is not None:
        name = _resolve_metric_name(args.metric, gold if gold is not None else dev)
        payload = rep.to_dict()
        payload["metric_name"] = name
        payload["metric_value"] = payload[name]
        _write_json(payload, out / "metrics.json")
        print(f"{name}={payload[name]:.6f}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # pre-scan --config so file values become flag defaults
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        known, _ = pre.parse_known_args(argv)
        if known.config:
            defaults = _read_json(known.config)
            if not isinstance(defaults, dict):
                raise DataError(f"{known.config}: config must be a JSON object")
            defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
            parser.set_defaults(**defaults)
            for sub in parser.command_parsers.values():
                sub.set_defaults(**defaults)  # subparsers re-apply their own defaults
        args = parser.parse_args(argv)
        if getattr(args, "threads", None) is not None and args.threads < 1:  # also a --config value
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except DegeneracyError as exc:
        print(f"error: degeneracy: {_one_line(exc)}", file=sys.stderr)
        return 3
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: data: {_one_line(exc)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: data: {_one_line(exc)}", file=sys.stderr)
        return 2


def _one_line(exc) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
