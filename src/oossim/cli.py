"""Command-line front end: `run` for the Monte Carlo sweep, `report` for
the fronthaul load table."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    DETECTORS,
    ExperimentSpec,
    check_fields,
    config_from_dict,
    default_spec,
    emit_report,
    load_table,
    run_monte_carlo,
)
from .scenario import SystemConfig


def _parse_value(key: str, text: str):
    """The override `key`'s value `text` as JSON, else as the text itself;
    ValueError naming `key` if JSON fails on more than its syntax (an
    array nested too deep, an integer of too many digits)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"override {key!r}: {exc}") from None


def _cfg_of(spec_dict: dict) -> dict:
    cfg = spec_dict.setdefault("cfg", {})
    check_fields("cfg", cfg, SystemConfig)
    return cfg


def _override(spec_dict: dict, overrides) -> dict:
    """Apply `key=value` overrides; `cfg.` prefixes reach the system config.
    Values are JSON-parsed when possible, e.g. --override cfg.K_I=3 or
    --override methods='["seq_gramian","centralized_genie"]'."""
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        value = _parse_value(key, raw)
        if key.startswith("cfg."):
            _cfg_of(spec_dict)[key[4:]] = value
        else:
            spec_dict[key] = value
    return spec_dict


def _spec_dict(args) -> dict:
    """The spec as plain data: the config file (or the default spec), then
    --override and, where the command has them, --seed, --trials and --out
    on top."""
    if args.config:
        with open(args.config) as fh:
            try:
                spec_dict = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{args.config}: {exc}") from None
    else:
        spec_dict = default_spec().to_dict()
    check_fields("spec", spec_dict, ExperimentSpec)
    spec_dict = _override(spec_dict, args.override)
    cfg = _cfg_of(spec_dict)
    for name in ("seed", "trials"):
        if getattr(args, name, None) is not None:
            cfg[name] = getattr(args, name)
    if getattr(args, "out", None):
        spec_dict["out_dir"] = args.out
    return spec_dict


def _out_dir(path) -> Path:
    """Make the output directory `path`; the commands do so before any work."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_run(args) -> int:
    try:
        spec = ExperimentSpec.from_dict(_spec_dict(args))
        _out_dir(spec.out_dir)
    except (ValueError, OSError) as exc:
        print(f"oossim run: {exc}", file=sys.stderr)
        return 2
    outcome = run_monte_carlo(spec)
    d = outcome.diagnostics
    if not outcome.rows:
        print(
            f"oossim run: no (method, SNR) point kept a block "
            f"({d.numerical_failures} numerical failures); nothing written",
            file=sys.stderr,
        )
        return 1
    csv_path, json_path, ledger = emit_report(outcome, spec)
    print(f"wrote {csv_path} and {json_path}")
    print(f"{'method':<20}{'snr_db':>8}{'ber':>12}{'per-link':>10}")
    for r in outcome.rows:
        print(
            f"{r.method:<20}{r.snr_db:>8.1f}{r.ber:>12.3e}"
            f"{r.fronthaul_per_link_real_symbols:>10d}"
        )
    if d.numerical_failures or d.degenerate_rotations:
        print(
            f"diagnostics: {d.numerical_failures} numerical failures, "
            f"{d.degenerate_rotations} degenerate rotations",
            file=sys.stderr,
        )
    failed = [method for method, phases in ledger.items() if phases and "failed" in phases]
    for method in failed:
        print(f"fronthaul ledger of {method} failed: {ledger[method]['failed']}", file=sys.stderr)
    if args.strict and (d.numerical_failures or failed):
        return 1
    return 0


def _cmd_report(args) -> int:
    # only the system config matters here, so the spec's methods are not
    # checked against it: a method undefined under it is listed as such;
    # an override of any other spec field would be ignored, so it is refused
    try:
        spec_dict = _spec_dict(args)
        for key in (item.partition("=")[0].strip() for item in args.override or []):
            if not key.startswith("cfg."):
                raise ValueError(f"only cfg.* overrides apply, not {key!r} (use --detector)")
        cfg = config_from_dict(spec_dict["cfg"])
        # the spec file's detector, as `oossim run` takes it, unless given
        detector = args.detector or (
            spec_dict.get("detector", ExperimentSpec.detector) if args.config else "distributed_zf"
        )
        if detector not in DETECTORS:
            raise ValueError(f"unknown detector {detector!r}; expected one of {DETECTORS}")
        out = _out_dir(args.out) if args.out else None
    except (ValueError, OSError) as exc:
        print(f"oossim report: {exc}", file=sys.stderr)
        return 2
    table = load_table(cfg, detector=detector)
    print(f"{'method':<20}{'phase':<20}{'real symbols per link':>24}")
    for method, phases in table.items():
        if phases is None:
            print(f"{method:<20}{'(undefined for this config)':<20}")
            continue
        if "failed" in phases:
            print(f"{method:<20}(ledger block failed: {phases['failed']})")
            continue
        if not phases:
            print(f"{method:<20}{'(no chain traffic)':<20}")
        for phase, load in phases.items():
            print(f"{method:<20}{phase:<20}{load:>24d}")
    if out is not None:
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
    rep_p.add_argument(
        "--detector", choices=DETECTORS,
        help="detector whose chain passes are included (default: the --config "
        "spec's detector, else distributed_zf)",
    )
    rep_p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
