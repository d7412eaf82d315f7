"""Command-line front end: `run` for the Monte Carlo sweep, `report` for
the fronthaul load table."""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    DETECTORS,
    ExperimentSpec,
    config_from_dict,
    default_spec,
    emit_report,
    load_table,
    run_monte_carlo,
)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _override(spec_dict: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        value = _parse_value(raw)
        key = key.strip()
        if key.startswith("cfg."):
            spec_dict.setdefault("cfg", {})[key[4:]] = value
        else:
            spec_dict[key] = value
    return spec_dict


def apply_overrides(spec: ExperimentSpec, overrides) -> ExperimentSpec:
    """Apply `key=value` overrides; `cfg.` prefixes reach the system config.

    Values are JSON-parsed when possible, e.g. --override cfg.K_I=3 or
    --override methods='["seq_gramian","centralized_genie"]'.
    """
    return ExperimentSpec.from_dict(_override(spec.to_dict(), overrides))


def _spec_dict(args) -> dict:
    """The spec as plain data: the config file (or the default spec), then
    --override, --seed, --trials and --out on top."""
    if args.config:
        with open(args.config) as fh:
            spec_dict = json.load(fh)
    else:
        spec_dict = default_spec().to_dict()
    spec_dict = _override(spec_dict, args.override)
    cfg = spec_dict.setdefault("cfg", {})
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    if getattr(args, "out", None):
        spec_dict["out_dir"] = args.out
    return spec_dict


def _cmd_run(args) -> int:
    try:
        spec = ExperimentSpec.from_dict(_spec_dict(args))
    except ValueError as exc:
        print(f"oossim run: {exc}", file=sys.stderr)
        return 2
    outcome = run_monte_carlo(spec)
    csv_path, json_path = emit_report(
        outcome.rows, spec, diagnostics=outcome.diagnostics
    )
    print(f"wrote {csv_path} and {json_path}")
    print(f"{'method':<20}{'snr_db':>8}{'ber':>12}{'per-link':>10}")
    for r in outcome.rows:
        print(
            f"{r.method:<20}{r.snr_db:>8.1f}{r.ber:>12.3e}"
            f"{r.fronthaul_per_link_real_symbols:>10d}"
        )
    d = outcome.diagnostics
    if d.numerical_failures or d.degenerate_rotations:
        print(
            f"diagnostics: {d.numerical_failures} numerical failures, "
            f"{d.degenerate_rotations} degenerate rotations",
            file=sys.stderr,
        )
    if args.strict and d.numerical_failures:
        return 1
    return 0


def _cmd_report(args) -> int:
    # only the system config matters here, so the spec's methods are not
    # checked against it: a method undefined under it is listed as such
    try:
        cfg = config_from_dict(_spec_dict(args)["cfg"])
    except ValueError as exc:
        print(f"oossim report: {exc}", file=sys.stderr)
        return 2
    table = load_table(cfg, detector=args.detector)
    print(f"{'method':<20}{'phase':<20}{'real symbols per link':>24}")
    for method, phases in table.items():
        if phases is None:
            print(f"{method:<20}{'(undefined for this config)':<20}")
            continue
        if not phases:
            print(f"{method:<20}{'(no chain traffic)':<20}")
        for phase, load in phases.items():
            print(f"{method:<20}{phase:<20}{load:>24d}")
    if getattr(args, "out", None):
        from pathlib import Path

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "load_table.json"
        path.write_text(json.dumps(table, indent=2))
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oossim",
        description="Cell-free massive MIMO simulator with decentralized "
        "out-of-system interference suppression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the Monte Carlo BER sweep")
    run_p.add_argument("--config", help="JSON experiment spec")
    run_p.add_argument(
        "--override", action="append", metavar="KEY=VALUE",
        help="override a spec field (cfg.* reaches the system config)",
    )
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--seed", type=int, help="RNG seed")
    run_p.add_argument("--trials", type=int, help="Monte Carlo blocks per point")
    run_p.add_argument(
        "--strict", action="store_true",
        help="exit nonzero if any numerical failure was recorded",
    )
    run_p.set_defaults(func=_cmd_run)

    rep_p = sub.add_parser("report", help="print the fronthaul load table")
    rep_p.add_argument("--config", help="JSON experiment spec")
    rep_p.add_argument("--override", action="append", metavar="KEY=VALUE")
    rep_p.add_argument("--out", help="also write load_table.json here")
    rep_p.add_argument("--seed", type=int)
    rep_p.add_argument("--trials", type=int)
    rep_p.add_argument(
        "--detector", default="distributed_zf", choices=DETECTORS,
        help="detector whose chain passes are included",
    )
    rep_p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
