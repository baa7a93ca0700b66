"""Weak supervision with embedding-based vote extension.

Extends noisy source votes to nearby points in a pre-trained embedding
space, recovers source accuracies by a method-of-moments estimator, and
produces probabilistic labels -- plus smoothness diagnostics, bound
evaluation, radius tuning, and a synthetic experiment harness.

``import weakext`` loads no submodule and no numpy: each name below is
imported from its module on first access (PEP 562), so
``weakext.extend_votes`` loads ``weakext.extension`` and what it needs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "core": (
        "DataError", "DegeneracyError", "EmbeddingSet", "LabelModelParams", "LabelVector", "Metric",
        "RadiusConfig", "VoteMatrix", "Weighting", "coverage", "load_embeddings",
        "load_labels", "load_votes", "save_embeddings", "save_labels", "save_votes",
    ),
    "diagnostics": (
        "DiagnosticsReport", "LipschitzProfile", "default_radius_grid", "diagnose", "ensemble_risk_bound",
        "estimate_profile", "estimation_error_bound", "extended_accuracy_lower_bound",
        "extended_source_risk_bound", "generalization_lift_lower_bound", "label_smoothness_bound",
    ),
    "experiments": (
        "SweepResult", "SyntheticTask", "generate_checkerboard", "refine_radii", "sweep_radius",
        "theory_guided_radius", "tune_shared_radius",
    ),
    "extension": (
        "ExtensionReport", "extend_votes",
    ),
    "label_model": (
        "MetricsReport", "TripletAssignment", "estimate_accuracies", "evaluate", "majority_vote", "min_overlap",
        "posterior", "predict", "select_triplets",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:  # the submodules, which an eager import used to bind
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
