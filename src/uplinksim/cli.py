"""Command-line front end.

Each subcommand takes only the flags it reads; any other flag exits 2.

  simulate            --config --out --seed --verbose
  loss-profile        --config --out
  error-budget        --config --out
  calibrate           --targets --out
  classical-baseline  --samples --seed
  fibre-compare       --rate-hz --distance-km --db-per-km
  write-config        --out --seed

Exit codes: 0 success, 2 configuration file or flag rejected, 3 I/O error,
4 calibration non-convergence, 5 simulation error (a valid configuration the
model cannot simulate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    default_config_dict,
    load_calibration_targets,
    load_campaign_config,
)
from .experiment import (
    BUDGET_SOURCES,
    CalibrationError,
    CampaignConfig,
    SimulationError,
    analytic_mean_fidelity,
    calibrate,
    classical_baseline,
    default_config,
    error_budget,
    fibre_comparison,
    run_campaign,
)
from .linkgeom import loss_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4
EXIT_SIMULATION = 5

# Most samples `classical-baseline` draws: about 3.5 s and 0.9 GB at 1e7.
MAX_SAMPLES = 10**7


def _load_config(args) -> CampaignConfig:
    return default_config() if args.config is None else load_campaign_config(args.config)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_loss_csv(config: CampaignConfig, path: Path) -> int:
    geometry = config.geometry(config.orbits[0])
    rows = loss_profile(geometry, config.link, config.orbit_duration_s)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t_s,elevation_deg,range_km,loss_db\n")
        fh.write(("%.1f,%.6f,%.6f,%.6f\n" * len(rows)) % tuple(rows.ravel().tolist()))
    return len(rows)


def _write_budget_csv(budget: dict[str, float], path: Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("source,deficit\n")
        for source in (*BUDGET_SOURCES, "combined"):
            fh.write(f"{source},{budget[source]:.6f}\n")


def cmd_simulate(args) -> int:
    config = _load_config(args)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = run_campaign(config)
    budget = error_budget(config)
    out = _out_dir(args)

    (out / "campaign_result.json").write_text(result.to_json() + "\n", encoding="ascii")
    with open(out / "fig3_fidelities.csv", "w", encoding="ascii") as fh:
        fh.write("state,fidelity,sigma\n")
        for label, summary in result.per_state.items():
            fh.write(f"{label},{summary.fidelity:.6f},{summary.sigma:.6f}\n")
    _write_loss_csv(config, out / "fig2_loss.csv")
    _write_budget_csv(budget, out / "error_budget.csv")

    if args.verbose:
        print(f"orbits: {len(config.orbits)}, seed: {config.seed}")
        for label, summary in result.per_state.items():
            print(
                f"  {label}: F = {summary.fidelity:.4f} +- {summary.sigma:.4f} "
                f"({summary.n_correct}/{summary.n_correct + summary.n_wrong})"
            )
    print(
        f"total fourfolds: {result.total_fourfolds}, "
        f"mean fidelity: {result.mean_fidelity:.4f} +- {result.mean_sigma:.4f}"
    )
    print(f"wrote 4 files to {out}")
    return EXIT_OK


def cmd_loss_profile(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    n = _write_loss_csv(config, out / "fig2_loss.csv")
    print(f"wrote {n} rows to {out / 'fig2_loss.csv'}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    targets = load_calibration_targets(args.targets)
    out = _out_dir(args)
    error = None
    try:
        result = calibrate(targets)
    except CalibrationError as err:
        result, error = err.result, err
    payload = {
        "converged": error is None,
        "params": result.params,
        "residuals": result.residuals,
    }
    if error is not None:
        payload["message"] = str(error)
    (out / "calibration.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )
    if error is not None:
        print(f"calibration failed: {error}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print("converged; residuals:")
    for key, value in sorted(result.residuals.items()):
        print(f"  {key}: {value:+.6g}")
    return EXIT_OK


def cmd_error_budget(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    budget = error_budget(config)
    _write_budget_csv(budget, out / "error_budget.csv")
    for source in (*BUDGET_SOURCES, "combined"):
        print(f"{source}: {budget[source]:.4f}")
    print(f"expected mean fidelity: {analytic_mean_fidelity(config):.4f}")
    return EXIT_OK


def cmd_classical_baseline(args) -> int:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must lie in [1, {MAX_SAMPLES}]")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    value = classical_baseline(args.samples, rng)
    print(f"classical baseline fidelity: {value:.6f} (limit 2/3 = {2 / 3:.6f})")
    return EXIT_OK


def cmd_fibre_compare(args) -> int:
    if not 0 < args.rate_hz < math.inf:
        raise ConfigError("--rate-hz must be positive and finite")
    if not (0 <= args.distance_km < math.inf and 0 <= args.db_per_km < math.inf):
        raise ConfigError("--distance-km and --db-per-km must be non-negative and finite")
    out = fibre_comparison(args.rate_hz, args.distance_km, args.db_per_km)
    print(f"total loss: {out.total_loss_db:.1f} dB")
    print(f"transmittance: {out.transmittance:.3e}")
    print(f"expected waiting time: {out.expected_wait_s:.3e} s "
          f"= {out.expected_wait_years:.3e} years")
    return EXIT_OK


def cmd_write_config(args) -> int:
    out = _out_dir(args)
    path = out / "campaign_config.json"
    payload = default_config_dict(seed=args.seed)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {path}")
    return EXIT_OK


# command -> (handler, help, flags), each flag a (name, add_argument keywords) pair.
_CONFIG = ("--config", dict(type=Path, default=None, help="campaign JSON file"))
_OUT = ("--out", dict(type=Path, default=Path("out"), help="output directory"))
_SEED = ("--seed", dict(type=int, default=None, help="seed override (u64)"))
COMMANDS = {
    "simulate": (cmd_simulate, "run the Monte Carlo campaign",
                 (_CONFIG, _OUT, _SEED, ("--verbose", dict(action="store_true")))),
    "loss-profile": (cmd_loss_profile, "emit the pass attenuation table", (_CONFIG, _OUT)),
    "calibrate": (cmd_calibrate, "fit model parameters to published targets",
                  (("--targets", dict(type=Path, required=True, help="targets JSON file")), _OUT)),
    "error-budget": (cmd_error_budget, "per-source fidelity deficits", (_CONFIG, _OUT)),
    "classical-baseline": (cmd_classical_baseline, "entanglement-free fidelity limit",
                           (("--samples", dict(type=int, default=10**6)), _SEED)),
    "fibre-compare": (cmd_fibre_compare, "waiting time through long fibre",
                      (("--rate-hz", dict(type=float, default=8210.0)),
                       ("--distance-km", dict(type=float, default=1200.0)),
                       ("--db-per-km", dict(type=float, default=0.2)))),
    "write-config": (cmd_write_config, "write the calibrated default config", (_OUT, _SEED)),
}


def command_parser(name: str, parser=None) -> argparse.ArgumentParser:
    """`parser`, by default a new `uplinksim <name>`, with command `name`'s flags and handler."""
    parser = parser or argparse.ArgumentParser(prog=f"uplinksim {name}")
    func, _, flags = COMMANDS[name]
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func, command=name)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplinksim", description="Ground-to-satellite teleportation campaign simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, _) in COMMANDS.items():
        command_parser(name, sub.add_parser(name, help=help))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        args = command_parser(argv[0]).parse_args(argv[1:])
    else:  # -h, no command or an unknown one: every command's help, or exit 2
        args = build_parser().parse_args(argv)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and not 0 <= seed < 2**64:
            raise ConfigError("--seed must be a 64-bit unsigned integer")
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as err:
        print(f"simulation error: {err}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
