"""Effort estimation from version control activity.

The pipeline turns raw commit logs into person-month estimates: ingest and
filter commits, resolve author identities, bucket activity into periods,
calibrate a full-time activity threshold against survey labels, and sum
saturated per-developer efforts. Sample representativeness can be checked
with two-sample KS tests, and seeded synthetic populations support
end-to-end validation against a planted threshold.

The exported names load lazily (PEP 562): ``import vcseffort`` imports no
submodule, and each name or submodule is imported on first access, so a
command pays only for the layers it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The CLI parser records every option's default in run.json, so it needs these on
# every run; calibration and stats import them from here.
SELECT_MIN = "min"
SELECT_MAX = "max"
SELECT_LOWER_MEDIAN = "lower-median"
SELECTION_POLICIES = (SELECT_MIN, SELECT_MAX, SELECT_LOWER_MEDIAN)
DEFAULT_CUTOFFS = (0, 1, 2, 3, 4, 5, 8, 11)

_EXPORTS = {
    "activity": ("ActivityMatrix", "PeriodSpec", "activity_in_window", "aggregate", "subtract_months"),
    "calibration": (
        "ThetaSelection", "ThresholdMetrics", "confusion_at", "metrics_at", "select_theta", "sweep",
    ),
    "effort": (
        "EffortReport", "developer_effort", "error_table", "project_effort", "render_percent",
        "render_quantity", "upper_bound",
    ),
    "errors": (
        "CalibrationError", "ConfigError", "GenerationError", "IngestionError", "ParameterError",
        "VcsEffortError",
    ),
    "identity": ("AliasMap", "CanonicalDeveloper", "load_alias_map", "resolve_identities"),
    "ingest": (
        "CommitRecord", "FilterConfig", "ParseResult", "apply_filters", "parse_log_file",
        "parse_log_stream",
    ),
    "stats": ("KsResult", "PopulationSummary", "ks_two_sample", "representativeness_table", "summarize"),
    "survey": ("SurveyLabel", "SurveyResponse", "load_survey", "triangulate"),
    "synth": ("GroundTruth", "PopulationSpec", "SyntheticPopulation", "fixture_files", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    # _import_module, not ``from . import``: the latter looks the submodule up as an
    # attribute of this package first, which re-enters this function without end.
    if name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
