"""Command-line interface: calibrate thresholds, estimate effort, check survey coverage.

Exit codes: 0 on success, 1 when input cannot be read or parsed, 2 on
configuration or semantic errors. All output files are deterministic
functions of the inputs and configuration.
"""

from __future__ import annotations

import argparse
import sys

# Only what build_parser and main need loads here: --version, --help and a usage error
# load no layer. Each function imports the layers and stdlib modules it uses, so a run
# loads only what its command executes; perfbench/tracer.py times a layer by rebinding
# the module attribute that such an import reads.
from . import (
    ALIGNMENT_CALENDAR,
    ALIGNMENT_ROLLING,
    DEFAULT_CUTOFFS,
    DEFAULT_MALFORMED_TOLERANCE,
    METRIC_COMMITS,
    METRICS,
    SELECT_LOWER_MEDIAN,
    SELECTION_POLICIES,
    __version__,
)
from .errors import CalibrationError, ConfigError, IngestionError, VcsEffortError

# For type checkers only: the annotations stay strings at run time, so these never load.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from datetime import date
    from typing import Sequence

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2

# The effort table sorts each period's counts once, after one pass over the activity
# matrix's cells; each threshold up to --theta-max then costs O(periods x log cells) for
# its row and its error, so time, memory and report size grow with theta-max x periods.
THETA_MAX_CEILING = 100_000

_REPORT_FILENAMES = {"json": "report.json", "csv": "report.csv", "markdown": "report.md"}

# Config-file key -> (the option's argparse action, its default); filled by build_parser.
Registry = dict[str, tuple[argparse.Action, object]]
# What a command hands main: its output files, its run.json record, its stdout summary line.
_Outcome = tuple[dict[str, object], dict, str]


def _switch(text: str) -> bool:
    """A config-file value for a flag that takes no argument."""
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _iso_date(text: str) -> date:
    from .ingest import iso_date

    try:
        return iso_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected YYYY-MM-DD, got {text!r}") from None


def _cutoffs(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(token.strip()) for token in text.split(",") if token.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("cutoff list is empty")
    if any(value < 0 for value in values):
        raise argparse.ArgumentTypeError("cutoffs must be >= 0")
    return tuple(sorted(set(values)))


# No leading underscore: argparse names the function in "invalid <name> value".
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def theta_max(text: str) -> int:
    value = positive_int(text)
    if value > THETA_MAX_CEILING:
        raise argparse.ArgumentTypeError(f"must be <= {THETA_MAX_CEILING}, got {value}")
    return value


def proportion(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def read_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; blank lines and #-comments are ignored."""
    from .ingest import setting_lines

    options: dict[str, str] = {}
    for line_no, line in setting_lines(path, "config file"):
        key, separator, value = line.partition("=")
        if not separator:
            raise ConfigError(f"config {path} line {line_no}: expected key = value")
        options[key.strip()] = value.strip()
    return options


def resolve_config(args: argparse.Namespace, options: Registry) -> argparse.Namespace:
    """Defaults, then the config file, then flags; a file value gets its flag's checks.

    The subcommand comes in with the flags: argparse always sets it.
    """
    config = argparse.Namespace(**{action.dest: default for action, default in options.values()})
    path = args.config
    for key, text in (read_config_file(path) if path else {}).items():
        try:
            action, _ = options[key.lower().replace("_", "-")]
        except KeyError:
            raise ConfigError(f"config file {path}: unknown option {key!r}") from None
        coerce = _switch if action.nargs == 0 else action.type or str
        try:
            value = coerce(text)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ConfigError(f"config file {path}: {key}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(
                f"config file {path}: {key}: invalid choice {value!r} "
                f"(choose from {', '.join(action.choices)})"
            )
        setattr(config, action.dest, value)
    for dest, value in vars(args).items():
        if dest != "config" and value is not None:
            setattr(config, dest, value)
    return config


def _write_outputs(config: argparse.Namespace, files: dict[str, object], record: dict) -> None:
    """Create ``--out``, write each file in order, then ``run.json``. The only writer: ``synth``
    hands it the three files of ``synth.fixture_files``, which replaces ``write_fixture``.

    A non-string is written as JSON, dates as ``YYYY-MM-DD`` and tuples as arrays. A failed
    write raises an ``OSError`` that names the directory or file it could not write.
    """
    import json
    from datetime import date
    from pathlib import Path

    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write output directory {out}: {exc}") from exc
    run = {"version": __version__, "command": config.command, "config": vars(config), **record}
    for name, content in {**files, "run.json": run}.items():
        if not isinstance(content, str):
            content = json.dumps(content, indent=2, sort_keys=True, default=date.isoformat) + "\n"
        try:
            (out / name).write_text(content, encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write output file {out / name}: {exc}") from exc


def _ingest(config: argparse.Namespace):
    """Kept timelines, their developer assignments and roster, and the ``ingest`` record."""
    from contextlib import nullcontext

    from .identity import AliasMap, load_alias_map, resolve_identities
    from .ingest import (
        DEFAULT_BOT_PATTERNS,
        compile_bot_patterns,
        drop_bots,
        group_log_stream,
        load_bot_patterns,
        open_log,
        read_repository_log,
    )

    sources = [source for source in (config.log, config.commits, config.repo) if source]
    if len(sources) != 1:
        raise ConfigError("exactly one of --log, --commits, or --repo is required")
    if config.repo:
        source = nullcontext(read_repository_log(config.repo))
    else:
        source = open_log(sources[0])
    # The whole log is read, and its malformed-line tolerance checked, before any bot pattern.
    with source as lines:
        timelines, merged, parsed, malformed = group_log_stream(
            lines, "jsonl" if config.commits else "pipe", config.malformed_tolerance,
            config.exclude_merges,
        )

    if config.bots is None:
        patterns: tuple[str, ...] = ()
    elif config.bots == "default":
        patterns = DEFAULT_BOT_PATTERNS
    else:
        patterns = load_bot_patterns(config.bots)
    kept, bots, merges = drop_bots(timelines, merged, compile_bot_patterns(patterns))
    print(
        f"parsed {parsed} commits ({len(malformed)} malformed); "
        f"excluded {bots} bot, {merges} merge"
    )
    ingest_info = {
        "parsed": parsed,
        "malformed": len(malformed),
        "bot_excluded": bots,
        "merge_excluded": merges,
        "kept": sum(map(len, kept.values())),
    }
    aliases = load_alias_map(config.aliases) if config.aliases else AliasMap()
    assignments, roster = resolve_identities(kept, aliases, config.name_merging)
    return kept, assignments, roster, ingest_info


def _survey_labels(config: argparse.Namespace, timelines, assignments, roster):
    """Survey labels, and each developer's activity in the window that ends at the survey."""
    from .activity import activity_in_window
    from .survey import load_survey, triangulate

    responses = load_survey(config.survey)
    if not responses:
        raise CalibrationError(f"survey {config.survey} has no responses")
    labels, exclusions = triangulate(responses, roster)
    if not labels:
        raise CalibrationError("no survey response matched the developer roster")
    window_end = config.anchor or max(response.survey_date for response in responses)
    return labels, exclusions, window_end, activity_in_window(
        timelines, assignments, window_end, config.period_months, config.metric
    )


def _calibrate_flow(config: argparse.Namespace, timelines, assignments, roster):
    from collections import Counter

    from .calibration import select_theta, sweep
    from .survey import LABEL_FULL

    labels, exclusions, window_end, counts = _survey_labels(config, timelines, assignments, roster)
    metrics = sweep(counts, labels, config.theta_max)
    selection = select_theta(metrics, config.select)
    label_counts = Counter(label.label for label in labels)
    full = label_counts[LABEL_FULL]
    print(
        f"labels: {len(labels)} (full-time {full}, non-full-time {len(labels) - full}); "
        f"exclusions: {len(exclusions)}"
    )
    payload = {
        **selection._asdict(),
        "theta_max": metrics[-1].theta,
        "window_end": window_end,
        "label_counts": label_counts,
        "exclusion_counts": Counter(exclusion.reason for exclusion in exclusions),
    }
    return metrics, selection, payload


def cmd_calibrate(config: argparse.Namespace) -> _Outcome:
    from .calibration import sweep_to_csv

    timelines, assignments, roster, ingest_info = _ingest(config)
    metrics, selection, payload = _calibrate_flow(config, timelines, assignments, roster)
    low, high = selection.argmax_range
    return (
        {"sweep.csv": sweep_to_csv(metrics), "selection.json": payload},
        {"result": {"selected_theta": selection.selected_theta}, "ingest": ingest_info},
        f"theta range [{low},{high}], selected {selection.selected_theta}, "
        f"goodness {selection.max_goodness:.2f}",
    )


def cmd_estimate(config: argparse.Namespace) -> _Outcome:
    from .activity import PeriodSpec, aggregate
    from .effort import (
        error_table,
        project_effort,
        render_csv,
        render_json,
        render_markdown,
        render_quantity,
        reports_for_thetas,
    )

    if (config.theta is None) == (config.survey is None):
        raise ConfigError("estimate requires exactly one of --theta or --survey")
    spec = PeriodSpec(config.period_months, config.alignment, config.anchor)
    spec.validate()
    timelines, assignments, roster, ingest_info = _ingest(config)

    result = {"theta": config.theta, "theta_provenance": "explicit"}
    if config.theta is None:
        _, selection, result["calibration"] = _calibrate_flow(config, timelines, assignments, roster)
        result.update(theta=selection.selected_theta, theta_provenance="calibrated")
    theta = result["theta"]

    matrix = aggregate(timelines, assignments, spec, config.metric)

    thetas = sorted({theta, *range(1, (config.theta_max or 0) + 1)})
    selected_report = project_effort(matrix, theta)
    errors = (
        error_table(matrix, theta, thetas)
        if len(thetas) > 1 and selected_report.total != 0
        else None
    )
    reports = reports_for_thetas(matrix, thetas)

    renderers = {"json": render_json, "csv": render_csv, "markdown": render_markdown}
    result["total_pm"] = render_quantity(selected_report.total)
    result["upper_bound_pm"] = render_quantity(selected_report.upper_bound)
    result["overflow_commits"] = matrix.overflow_commits
    return (
        {
            "activity.csv": matrix.to_csv(),
            _REPORT_FILENAMES[config.format]: renderers[config.format](reports, theta, errors),
        },
        {"result": result, "ingest": ingest_info},
        f"total effort {result['total_pm']} PM "
        f"(theta {theta}, upper bound {result['upper_bound_pm']} PM)",
    )


def cmd_representativeness(config: argparse.Namespace) -> _Outcome:
    from .stats import representativeness_table, representativeness_to_csv

    timelines, assignments, roster, ingest_info = _ingest(config)
    labels, exclusions, window_end, counts = _survey_labels(config, timelines, assignments, roster)
    all_counts = {developer.developer_id: counts.get(developer.developer_id, 0) for developer in roster}
    surveyed_counts = {label.developer_id: all_counts[label.developer_id] for label in labels}
    rows = representativeness_table(all_counts, surveyed_counts, config.cutoffs)

    insufficient = sum(1 for row in rows if row.ks is None)
    return (
        {"representativeness.csv": representativeness_to_csv(rows)},
        {
            "result": {
                "cutoffs": config.cutoffs,
                "insufficient": insufficient,
                "window_end": window_end,
                "surveyed": len(surveyed_counts),
                "population": len(all_counts),
            },
            "ingest": ingest_info,
        },
        f"representativeness: {len(rows)} cutoffs, {insufficient} insufficient",
    )


def cmd_synth(config: argparse.Namespace) -> _Outcome:
    from datetime import date

    from .synth import PopulationSpec, fixture_files, generate

    spec = PopulationSpec(
        n_fulltime=config.fulltime,
        n_other=config.other,
        theta_true=config.theta_true,
        skew_exponent=config.skew,
        label_noise=config.label_noise,
        seed=config.seed,
    )
    population = generate(spec)
    anchor = config.anchor or date(2020, 1, 1)
    files = fixture_files(population, anchor, config.period_months, config.log_format)
    total_commits = sum(population.counts.values())
    return (
        files,
        {
            "result": {
                "developers": len(population.counts),
                "commits": total_commits,
                "files": dict(zip(("log", "survey", "ground_truth"), files)),
                "anchor": anchor,
            }
        },
        f"generated {len(population.counts)} developers, {total_commits} commits",
    )


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "estimate": cmd_estimate,
    "representativeness": cmd_representativeness,
    "synth": cmd_synth,
}


def build_parser() -> tuple[argparse.ArgumentParser, Registry]:
    """The CLI parser, and each option's action and default keyed by its config-file name.

    A config-file key is the long flag without ``--``; its value gets the flag's checks.
    Every option declared here is recorded in ``run.json``; ``--config`` is not.
    """
    parser = argparse.ArgumentParser(
        prog="vcs-effort",
        description="Estimate development effort in person-months from version control activity.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    options: Registry = {}

    def option(group: argparse.ArgumentParser, flag: str, default: object = None, **kwargs) -> None:
        # argparse keeps None as its default, so resolve_config can tell which flags were given.
        options[flag.removeprefix("--")] = group.add_argument(flag, **kwargs), default

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="plain-text 'key = value' file; flags override it")
    option(common, "--out", default=".", help="output directory (default: current directory)")
    option(
        common, "--period-months", default=6, type=positive_int,
        help="period length in months (default 6)",
    )
    option(common, "--anchor", type=_iso_date, help="anchor date YYYY-MM-DD")

    source = argparse.ArgumentParser(add_help=False)
    option(source, "--log", help="pipe-format commit log (hash|email|name|timestamp|merge)")
    option(source, "--commits", help="JSON-lines commit file")
    option(source, "--repo", help="path to a local git repository")
    option(
        source, "--bots", help="bot regex file (one pattern per line), or 'default' for the built-in set"
    )
    option(
        source, "--exclude-merges", default=False, action="store_const", const=True,
        help="drop merge commits (kept by default)",
    )
    option(source, "--aliases", help="alias CSV: alias_email_or_name,canonical_email")
    option(
        source, "--name-merging", default=False, action="store_const", const=True,
        help="also merge identities sharing a normalized author name",
    )
    option(
        source, "--metric", default=METRIC_COMMITS, choices=METRICS,
        help="activity metric (default commits)",
    )
    option(
        source, "--malformed-tolerance", default=DEFAULT_MALFORMED_TOLERANCE, type=proportion,
        help="abort when the malformed line fraction exceeds this (default 0.05)",
    )
    option(source, "--survey", help="survey CSV (email,self_class,hours_bucket,survey_date,suspect)")

    thresholds = argparse.ArgumentParser(add_help=False)
    option(thresholds, "--theta-max", type=theta_max, help="highest threshold to sweep or report")
    option(
        thresholds, "--select", default=SELECT_LOWER_MEDIAN, choices=SELECTION_POLICIES,
        help="tie-break policy",
    )

    subparsers.add_parser(
        "calibrate",
        parents=[common, source, thresholds],
        help="sweep thresholds against survey labels and select the best",
    )

    estimate = subparsers.add_parser(
        "estimate",
        parents=[common, source, thresholds],
        help="estimate person-month effort at a threshold",
    )
    option(estimate, "--theta", type=positive_int, help="explicit full-time threshold")
    option(
        estimate, "--alignment", default=ALIGNMENT_CALENDAR,
        choices=(ALIGNMENT_CALENDAR, ALIGNMENT_ROLLING),
        help="period layout (default calendar half-years)",
    )
    option(
        estimate, "--format", default="json", choices=tuple(_REPORT_FILENAMES),
        help="report format (default json)",
    )

    representativeness = subparsers.add_parser(
        "representativeness",
        parents=[common, source],
        help="compare surveyed developers against the population at activity cutoffs",
    )
    option(
        representativeness, "--cutoffs", default=DEFAULT_CUTOFFS, type=_cutoffs,
        help="comma-separated activity cutoffs",
    )

    synth = subparsers.add_parser(
        "synth",
        parents=[common],
        help="generate a seeded synthetic commit log and survey",
    )
    option(synth, "--seed", default=0, type=int, help="random seed (default 0)")
    option(synth, "--fulltime", default=10, type=int, help="number of full-time developers")
    option(synth, "--other", default=100, type=int, help="number of non-full-time developers")
    option(synth, "--theta-true", default=10, type=int, help="planted threshold")
    option(synth, "--skew", default=2.0, type=float, help="power-law exponent (default 2.0)")
    option(synth, "--label-noise", default=0.0, type=float, help="label flip probability")
    option(synth, "--log-format", default="pipe", choices=("pipe", "jsonl"))

    return parser, options


def main(argv: Sequence[str] | None = None) -> int:
    parser, options = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args, options)
        if config.command in ("calibrate", "representativeness") and not config.survey:
            raise ConfigError(f"{config.command} requires --survey")
        files, record, summary = _COMMANDS[config.command](config)
        _write_outputs(config, files, record)
        print(summary)
        return EXIT_OK
    except (IngestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VcsEffortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
