"""Command-line interface.

Subcommands mirror the pipeline stages plus `run` (full pipeline or a
stage subset), `explain` (per-DOI attribution trace), and `gen-fixture`
(synthetic corpus with planted ground truth). Failures exit nonzero with
a structured JSON error report on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import fixture, pipeline
from .config import apply_overrides, load_config
from .errors import PipelineError


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config file (JSON)")
    parser.add_argument("--years", help="closed year window, e.g. 2019:2023")
    parser.add_argument("--role", choices=("first", "corresponding"), help="restrict to one role")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument(
        "--workers", type=int,
        help="worker processes, at least 1 (default: the CPUs this process may run on)",
    )
    parser.add_argument("--out", help="override the output directory")


def _load(args: argparse.Namespace):
    config = load_config(args.config)
    config = apply_overrides(
        config,
        years=args.years,
        role=args.role,
        seed=args.seed,
        workers=args.workers,
        out_dir=args.out,
    )
    config.validate()
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridoa",
        description="Measure transformative-agreement-enabled hybrid open access "
        "across bibliometric data sources.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the pipeline (all stages by default)")
    _add_config_flags(run_parser)
    run_parser.add_argument(
        "--stages",
        help="comma-separated subset of: " + ",".join(pipeline.artifacts.STAGES),
    )

    for stage in pipeline.artifacts.STAGES:
        stage_parser = sub.add_parser(stage, help=f"run only the {stage} stage")
        _add_config_flags(stage_parser)

    explain_parser = sub.add_parser("explain", help="attribution trace for one DOI")
    _add_config_flags(explain_parser)
    explain_parser.add_argument("doi")

    gen = sub.add_parser("gen-fixture", help="generate a synthetic corpus with ground truth")
    gen.add_argument("--out", required=True, help="fixture directory")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--articles", type=int, default=4000, help="unique works (records are ~2.5x)")
    gen.add_argument("--journals", type=int, default=50)
    gen.add_argument("--institutions", type=int, default=20)
    gen.add_argument("--agreements", type=int, default=5)
    gen.add_argument("--noise", type=float, default=0.10, help="multi-affiliation noise rate")
    gen.add_argument("--affiliation-gap-rate", type=float, default=0.0)
    gen.add_argument(
        "--withhold-cc-publisher",
        help="omit CC license metadata from the open source for this publisher",
    )
    gen.add_argument(
        "--delayed-oa-publisher",
        help="plant delayed-OA licenses on this publisher's closed articles",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "gen-fixture":
            params = fixture.FixtureParams(
                seed=args.seed,
                n_articles=args.articles,
                n_journals=args.journals,
                n_institutions=args.institutions,
                n_agreements=args.agreements,
                noise_rate=args.noise,
                affiliation_gap_rate=args.affiliation_gap_rate,
                withhold_cc_publisher=args.withhold_cc_publisher,
                delayed_oa_publisher=args.delayed_oa_publisher,
            )
            counts = fixture.generate(params, args.out)
            print(json.dumps(counts, sort_keys=True))
            return 0

        config = _load(args)
        if args.command == "explain":
            print(pipeline.explain_doi(config, args.doi))
            return 0
        if args.command == "run":
            stages = None
            if args.stages is not None:
                stages = [s.strip() for s in args.stages.split(",") if s.strip()]
            executed = pipeline.run(config, stages)
            print(json.dumps({"stages": executed, "out_dir": config.out_dir}))
            return 0
        pipeline.run(config, [args.command])
        print(json.dumps({"stages": [args.command], "out_dir": config.out_dir}))
        return 0
    except PipelineError as exc:
        report = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(report), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
