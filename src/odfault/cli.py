"""Command line front end for running campaigns and scoring record files.

Subcommands: ``transient``, ``permanent``, ``ingest``, ``simulate-pr``.
Configuration comes from an optional JSON document; command line flags
override config fields and ``--seed`` is always required so every run is
reproducible. Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

from odfault.bits import BIT_POLICIES, FaultTarget
from odfault.campaign import (
    CampaignConfig,
    ConfigError,
    ingest_and_score,
    run_permanent,
    run_transient,
    simulate_pr,
)
from odfault.records import DataError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _add_common(parser, mode):
    if mode != "simulate_pr":  # the PR experiment is driven by its own flags only
        parser.add_argument("--config", help="JSON configuration document")
    parser.add_argument("--seed", type=int, required=True, help="campaign seed (mandatory)")
    parser.add_argument("--out", required=True, help="output directory")
    if mode in ("transient", "permanent"):
        parser.add_argument("--n-injections", type=int, dest="n_injections")
        parser.add_argument("--target", choices=[target.value for target in FaultTarget])
        parser.add_argument("--workers", type=int)
    if mode == "transient":
        parser.add_argument("--bit-policy", dest="bit_policy", choices=BIT_POLICIES)
    if mode == "permanent":
        parser.add_argument("--n-frames", type=int, dest="n_frames")
        parser.add_argument("--emit-masks", type=int, dest="emit_masks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odfault",
        description="Fault injection and vulnerability measurement for object detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("transient", help="transient bit-flip campaign"), "transient")
    _add_common(sub.add_parser("permanent", help="stuck-at-1 persistence campaign"), "permanent")

    ingest = sub.add_parser("ingest", help="score external detection record files")
    ingest.add_argument("--orig", required=True, help="fault-free records (ndjson)")
    ingest.add_argument("--corr", required=True, help="corrupted records (ndjson)")
    _add_common(ingest, "ingest")

    pr = sub.add_parser("simulate-pr", help="synthetic PR-curve experiment")
    _add_common(pr, "simulate_pr")
    pr.add_argument("--objects", type=int, default=100)
    pr.add_argument("--p-tp", type=float, default=0.7, dest="p_tp")
    pr.add_argument("--fp-rate", type=float, default=0.3, dest="fp_rate")
    pr.add_argument("--conf-lo", type=float, default=0.7, dest="conf_lo")
    pr.add_argument("--conf-hi", type=float, default=1.0, dest="conf_hi")
    return parser


def _load_config(args, mode) -> CampaignConfig:
    base = {}
    overrides = {key: getattr(args, key, None) for key in
                 ("n_injections", "target", "workers", "bit_policy", "n_frames", "emit_masks")}
    try:
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    base = json.load(handle)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
        return CampaignConfig.from_json(base, mode=mode, seed=args.seed, **overrides)
    except RecursionError as exc:  # in json.load, or in repr for a message
        raise ConfigError("config is nested too deeply") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "transient":
            report = run_transient(_load_config(args, "transient"), args.out)
            rates = report["rates"]
            print(f"transient: sdc={rates['sdc']:.4f} due={rates['due']:.4f} "
                  f"benign={rates['benign']:.4f} -> {args.out}")
        elif args.command == "permanent":
            report = run_permanent(_load_config(args, "permanent"), args.out)
            level0 = str(min(float(k) for k in report["fp_rates_at_level"]))
            print(f"permanent: fp_persistent@L{level0}={report['fp_rates_at_level'][level0]:.4f} "
                  f"(rescaled {report['fp_rates_at_level_rescaled'][level0]:.4f}) -> {args.out}")
        elif args.command == "ingest":
            report = ingest_and_score(args.orig, args.corr, _load_config(args, "ingest"), args.out)
            rates = report["rates"]
            print(f"ingest: {report['n_images']} images sdc={rates['sdc']:.4f} "
                  f"due={rates['due']:.4f} -> {args.out}")
        elif args.command == "simulate-pr":
            report = simulate_pr(
                seed=args.seed,
                out_dir=args.out,
                n_objects=args.objects,
                p_tp=args.p_tp,
                fp_rate=args.fp_rate,
                conf_range=(args.conf_lo, args.conf_hi),
            )
            baseline = report["variants"]["baseline"]["ap50"]
            print(f"simulate-pr: baseline ap50={baseline:.4f} -> {args.out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
