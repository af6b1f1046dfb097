"""Command-line front end.

Subcommands: gen-types (product type sets), landscape (difficulty probe
over an unconstrained type sample), run (one simulation), experiment
(paired social/non-social batch plus analysis report), analyze (recompute
the report from raw run CSVs).

Every command is deterministic given its flags and config file; there is
no wall-clock seeding. Settings resolve as flags > config file > defaults.
Config files are plain `key = value` lines with `#` comments; keys are the
RunConfig field names, each set at most once, and unknown keys are
rejected, as are the keys a command always sets itself (`seed` everywhere,
`social` in experiment, the type-set keys `n_types`, `min_type_distance`
and `max_type_attempts` in landscape).

experiment and analyze run on one worker process per usable CPU
(`harness.usable_cpus`; `experiment --workers` overrides it), and their
bytes, messages and exit codes do not depend on the count.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import fields
from functools import partial

import numpy as np

from . import products, stats
from .harness import (METRIC_NAMES, RunConfig, RunMetrics, RunResult,
                      batch, pool_map, read_run_samples, run, run_file_name,
                      run_metrics, summary_row, type_set_from_config,
                      usable_cpus, write_run_csv, write_summary_csv,
                      ConfigError)
from .serialize import fmt_float, write_csv

_RUN_FILE_RE = re.compile(r"run_(\d+)_(social|nonsocial)\.csv$")


# ---------------------------------------------------------------------------
# configuration plumbing


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: {key} is already set on "
                                 f"line {set_on[key]}")
            set_on[key] = lineno
            values[key] = value
    return values


def _coerce(text: str, target_type) -> object:
    if target_type is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(text)
    return target_type(text)


# a config file may not set these: every command takes the seed from its
# flags or from run file names (and experiment runs both social arms)
_COMMAND_LINE_KEYS = ("seed",)


def build_config(config_path: str | None, flag_overrides: dict,
                 refused: tuple[str, ...] = _COMMAND_LINE_KEYS) -> RunConfig:
    """Merge defaults, config-file entries and flag overrides (in that
    order of increasing precedence). A config file may not set a `refused`
    key: the command line decides it."""
    field_types = {f.name: f.type for f in fields(RunConfig)}
    type_map = {"int": int, "float": float, "bool": bool, "str": str}
    overrides: dict[str, object] = {}
    if config_path:
        for key, text in parse_config_file(config_path).items():
            if key not in field_types:
                raise ValueError(f"{config_path}: unknown configuration key: {key}")
            if key in refused:
                raise ValueError(f"{config_path}: {key} cannot be set in a "
                                 f"config file: the command line decides it")
            target = field_types[key]
            if isinstance(target, str):
                target = type_map[target]
            try:
                overrides[key] = _coerce(text, target)
            except ValueError:
                raise ValueError(f"{config_path}: {key}: cannot parse '{text}' "
                                 f"as {target.__name__}") from None
    for key, value in flag_overrides.items():
        if value is not None:
            overrides[key] = value
    return RunConfig().with_overrides(**overrides)


def _validated_config(args, refused=_COMMAND_LINE_KEYS,
                      **flag_overrides) -> RunConfig:
    config = build_config(getattr(args, "config", None), flag_overrides,
                          refused)
    problems = config.validate()
    if problems:
        raise ConfigError(problems)
    for warning in config.density_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    return config


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_types(args) -> int:
    config = _validated_config(args, seed=args.seed, n_types=args.count,
                               min_type_distance=args.min_dist)
    types = type_set_from_config(config)
    products.write_type_csv(types, args.out)
    if len(types) > 1:
        dists = products.pairwise_signature_distances(types)
        upper = dists[np.triu_indices(len(types), k=1)]
        print(f"wrote {len(types)} types to {args.out}; pairwise signature "
              f"distance min={upper.min():.4f} mean={upper.mean():.4f} "
              f"max={upper.max():.4f}")
    else:
        print(f"wrote 1 type to {args.out}")
    return 0


def cmd_landscape(args) -> int:
    if args.samples < 2:
        print("error: --samples must be >= 2", file=sys.stderr)
        return 2
    # the sample is unconstrained and --samples sized, whatever a config
    # file would say
    config = _validated_config(args, ("seed", "n_types", "min_type_distance",
                                      "max_type_attempts"), seed=args.seed)
    types = type_set_from_config(config.with_overrides(
        n_types=args.samples, min_type_distance=0.0,
        max_type_attempts=max(args.samples, 10_000)))
    radius = config.maxima_radius if config.maxima_radius > 0 else None
    max_ids, distances = products.landscape_distances(types, radius)
    utilities = [t.utility for t in types]
    try:
        value = stats.fdc(utilities, distances)
        summary = f"# fdc = {fmt_float(value)}"
        message = f"fdc = {value:.4f} over {len(types)} sampled types " \
                  f"({len(max_ids)} maxima)"
    except ValueError:
        summary = "# fdc = undefined (degenerate landscape)"
        message = f"fdc undefined over {len(types)} sampled types (flat landscape)"
    max_set = set(max_ids)
    extra = [[fmt_float(distances[k]), str(int(t.type_id in max_set))]
             for k, t in enumerate(types)]
    products.write_type_csv(types, args.out,
                            extra_header=["nearest_max_dist", "is_max"],
                            extra_cells=extra, trailer=summary)
    print(message)
    return 0


def cmd_run(args) -> int:
    config = _validated_config(args, seed=args.seed, cycles=args.cycles,
                               social=args.social)
    result = run(config)
    write_run_csv(result, args.out)
    print(",".join(summary_row(result)))
    return 0


def _write_report_files(metrics_by_pair: list[tuple[RunMetrics, RunMetrics]],
                        out_dir: str, report_path: str) -> None:
    """Report and KDE files from (social, non-social) metrics per pair."""
    metric_pairs = {name: ([], []) for name in METRIC_NAMES}
    for social_metrics, nonsocial_metrics in metrics_by_pair:
        for name in METRIC_NAMES:
            s_val = getattr(social_metrics, name)
            ns_val = getattr(nonsocial_metrics, name)
            if s_val is None or ns_val is None:
                continue
            metric_pairs[name][0].append(s_val)
            metric_pairs[name][1].append(ns_val)
    rows = [stats.comparison_row(name, social, nonsocial)
            for name, (social, nonsocial) in metric_pairs.items()]
    write_csv(report_path, stats.REPORT_HEADER, rows)
    for name in ("mean_units", "mean_coverage", "mean_path_length"):
        social, nonsocial = metric_pairs[name]
        for arm, values in (("social", social), ("nonsocial", nonsocial)):
            if values:
                stats.write_density_csv(
                    stats.gaussian_kde(values),
                    os.path.join(out_dir, f"kde_{name}_{arm}.csv"))


def cmd_experiment(args) -> int:
    # a bad pair count, worker count or seed base fails before the output
    # directory is made, and an unusable output directory before any pair runs
    config = _validated_config(args, ("seed", "social"), seed=args.seed_base)
    workers = usable_cpus() if args.workers is None else args.workers
    if args.pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    os.makedirs(args.out_dir, exist_ok=True)
    pairs = batch(args.pairs, args.seed_base, config, workers=workers)
    flat: list[RunResult] = []
    for pair in pairs:
        for result in (pair.social, pair.nonsocial):
            write_run_csv(result, os.path.join(
                args.out_dir, run_file_name(result.config.seed,
                                            result.config.social)))
            flat.append(result)
    write_summary_csv(flat, os.path.join(args.out_dir, "summary.csv"))
    _write_report_files([(p.social.metrics, p.nonsocial.metrics)
                         for p in pairs],
                        args.out_dir, os.path.join(args.out_dir, "report.csv"))
    print(f"{args.pairs} pairs ({2 * args.pairs} runs) written to {args.out_dir}")
    return 0


def _analyze_run(path: str, config: RunConfig) -> RunMetrics:
    # looks both functions up on this module, so that the wrappers put
    # there (benchmark/tracer.py) also run in the workers
    return run_metrics(read_run_samples(path), config)


def cmd_analyze(args) -> int:
    config = _validated_config(args)
    by_seed: dict[int, dict[str, str]] = {}
    if not os.path.isdir(args.in_dir):
        print(f"error: {args.in_dir} is not a directory", file=sys.stderr)
        return 1
    for name in sorted(os.listdir(args.in_dir)):
        match = _RUN_FILE_RE.fullmatch(name)
        if match:
            seed, arm = int(match.group(1)), match.group(2)
            # only the name the program writes may hold a run: "07" (or a
            # non-ASCII digit) would alias, and silently replace, seed 7
            canonical = run_file_name(seed, arm == "social")
            if name != canonical:
                print(f"error: {os.path.join(args.in_dir, name)}: seed "
                      f"{match.group(1)!r} is not in the form run file "
                      f"names use; the {arm} run of seed {seed} is "
                      f"{canonical}", file=sys.stderr)
                return 1
            by_seed.setdefault(seed, {})[arm] = os.path.join(args.in_dir, name)
    if not by_seed:
        print(f"error: no run_<seed>_<social|nonsocial>.csv files in "
              f"{args.in_dir}", file=sys.stderr)
        return 1
    gaps = [str(seed) for seed, arms in sorted(by_seed.items())
            if len(arms) != 2]
    if gaps:
        print(f"error: incomplete pairs for seeds: {', '.join(gaps)}",
              file=sys.stderr)
        return 1
    paths = [by_seed[seed][arm] for seed in sorted(by_seed)
             for arm in ("social", "nonsocial")]
    metrics = pool_map(partial(_analyze_run, config=config), paths,
                       usable_cpus())
    pairs = list(zip(metrics[0::2], metrics[1::2]))
    _write_report_files(pairs, os.path.dirname(os.path.abspath(args.out)),
                        args.out)
    print(f"analysis of {len(pairs)} pairs written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flag(parser) -> None:
    parser.add_argument("--config", help="key = value settings file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consumerlab",
        description="Deterministic consumer-agent simulation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-types", help="generate a spaced product type set")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=None,
                   help="number of types (default: the config n_types, 10)")
    p.add_argument("--min-dist", type=float, default=None,
                   help="minimum pairwise signature distance")
    p.add_argument("--out", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_gen_types)

    p = sub.add_parser("landscape",
                       help="probe landscape difficulty over an unconstrained sample")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--out", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--social", action=argparse.BooleanOptionalAction,
                   default=None)
    p.add_argument("--out", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment",
                       help="run a paired social vs non-social experiment")
    p.add_argument("--pairs", type=int, default=30)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: every CPU this process "
                        "may use)")
    _add_config_flag(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("analyze",
                       help="recompute the analysis report from run CSVs")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
