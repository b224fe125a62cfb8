"""Batch front-end: run configs in, branches and reports out.

Four subcommands over one JSON config format: `branch` writes the
continuation table plus per-point profile snapshots, `spectrum` the
per-mode eigenvalue scan, `pohozaev` the identity residuals, and `verify`
the diagnostics report of `diagnostics.build_report` checked against
configurable thresholds.  Outputs
are deterministic: files carry the config hash, floats are written with
17 significant digits, and writes are atomic.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 assertion
failure.  Failures are reported as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import serialize
from .diagnostics import build_report, log_linear_fit, pohozaev_rows
from .errors import ConfigError, MfelabError, ParameterDomainError, WeightSpecError
from .linearization import nondegeneracy_scan
from .radial_solver import continue_branch
from .serialize import RunConfig
from .workers import shared


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _run_branch(config: RunConfig, nodes: int | None = None):
    win = config.window
    return continue_branch(
        win["start"], win["end"], win["steps"], config.weight_spec(), config.mesh_policy(nodes)
    )


def _branch_meta(branch) -> dict:
    return {
        "lambda": [float(v) for v in branch.lambdas],
        "rho": [float(v) for v in branch.rhos],
        "fold_flags": [int(i) for i in branch.fold_flags],
        "failure": branch.failure,
    }


def _branch_failed(branch, h: str, **extra) -> bool:
    """Emit the exit-3 record of a branch that stopped short; True if it did."""
    if branch.failure is None:
        return False
    _emit({"error": {"code": 3, "kind": "solver", "detail": branch.failure,
                     "config_hash": h, **extra}})
    return True


def cmd_branch(config: RunConfig) -> int:
    branch = _run_branch(config)
    h = config.config_hash()
    out = config.out
    paths = [os.path.join(out, "branch.csv")]
    serialize.atomic_write(paths[0], serialize.branch_csv(branch, config.r0, h))
    for i, pt in enumerate(branch.points):
        p = os.path.join(out, f"u_{i:04d}.csv")
        serialize.atomic_write(p, serialize.snapshot_csv(pt, h))
        paths.append(p)
    if _branch_failed(branch, h, outputs=paths):
        return 3
    _emit({"status": "ok", "config_hash": h, "outputs": paths})
    return 0


def cmd_spectrum(config: RunConfig) -> int:
    branch = _run_branch(config)
    h = config.config_hash()
    if _branch_failed(branch, h):
        return 3
    scan = nondegeneracy_scan(branch, k_max=config.k_max)
    path = os.path.join(config.out, "spectrum.csv")
    serialize.atomic_write(path, serialize.spectrum_csv(scan, h))
    _emit({"status": "ok", "config_hash": h, "outputs": [path]})
    return 0


def cmd_pohozaev(config: RunConfig) -> int:
    branch = _run_branch(config)
    h = config.config_hash()
    if _branch_failed(branch, h):
        return 3
    kind, rows, _ = pohozaev_rows(branch, config.r0)
    rows = [(lam, kind, config.r0, res) for lam, res in rows]
    path = os.path.join(config.out, "pohozaev.csv")
    serialize.atomic_write(path, serialize.pohozaev_csv(rows, h))
    _emit({"status": "ok", "config_hash": h, "outputs": [path]})
    return 0


def _doubled_branch(config: RunConfig) -> np.ndarray:
    """The continuation on twice the nodes: a failed flag, then rho at each point."""
    fine = _run_branch(config, nodes=2 * config.mesh["nodes"])
    row = np.zeros(1 + config.window["steps"])
    row[0] = fine.failure is not None
    row[1 : 1 + len(fine.points)] = fine.rhos
    return row


def _verify_failures(config: RunConfig, branch, report, doubled) -> list:
    """The threshold gates on top of the report, as a list of failures.

    ``doubled`` is the table whose one row ``_doubled_branch`` computed;
    it has no row when ``diagnostics`` is empty.
    """
    if not config.diagnostics:
        return []
    thr = config.thresholds
    window = config.fit_window
    beta = 1.0 + config.alpha
    sigma_rate = 1.0 / (2.0 * beta)
    failures = []

    # branch-level control: the continuation must be mesh-converged
    if doubled[0, 0]:
        failures.append({"check": "mesh-convergence", "detail": "doubled mesh did not converge"})
    else:
        fine_rhos = doubled[0, 1 : 1 + len(branch.points)]
        rel = float(np.max(np.abs(fine_rhos - branch.rhos) / np.maximum(1.0, np.abs(branch.rhos))))
        if rel > thr["mesh_rtol"]:
            failures.append({
                "check": "mesh-convergence",
                "detail": f"rho shifts by {rel:.3e} under mesh doubling "
                          f"(threshold {thr['mesh_rtol']:.1e}); refine mesh.nodes",
            })

    fit = report.rate_fit
    if fit is not None:
        target = -1.0 / beta
        if abs(fit.slope - target) > thr["rate_slope_rtol"] * abs(target):
            failures.append({"check": "rate-slope",
                             "detail": f"slope {fit.slope:.4f} vs {target:.4f}"})
        if fit.r_squared < thr["r2_floor"]:
            failures.append({"check": "rate-fit-quality",
                             "detail": f"r^2 = {fit.r_squared:.4f}"})
    decays = []
    if report.matching is not None:
        decays.append(("matching-decay", report.matching))
    if report.outer is not None:
        decays += [("outer-decay", report.outer), ("outer-gradient-decay", report.outer_gradient)]
    for label, series in decays:
        exponent = -log_linear_fit(branch.lambdas, series, window).slope
        if exponent < thr["decay_margin"] * sigma_rate:
            failures.append({"check": label,
                             "detail": f"exponent {exponent:.4f} vs {sigma_rate:.4f}"})
    if report.pohozaev is not None:
        worst = max((abs(v) for v in report.pohozaev), default=0.0)
        if worst > thr["pohozaev_tol"]:
            failures.append({"check": "pohozaev-residual",
                             "detail": f"max |residual| {worst:.3e}"})
    verdict = report.uniqueness
    if verdict is not None and not verdict.ok:
        failures.append({"check": "uniqueness-monotonicity",
                         "detail": f"sign {verdict.sign} vs {verdict.expected_sign}, "
                                   f"monotone {verdict.monotone}"})
    return failures


def cmd_verify(config: RunConfig) -> int:
    h = config.config_hash()
    # the mesh gate's doubled-mesh continuation does not depend on the
    # coarse branch, so a worker runs it meanwhile; without diagnostics
    # there is no gate to run it for
    rows = 1 if config.diagnostics else 0
    with shared(lambda _: _doubled_branch(config), rows, 1 + config.window["steps"]) as doubled:
        branch = _run_branch(config)
        if _branch_failed(branch, h):
            return 3
        report = build_report(
            branch, config.fit_window, config.r0, config.outer_radius, h, config.diagnostics,
            config.thresholds["r2_floor"],
        )
    failures = _verify_failures(config, branch, report, doubled)
    doc = {"branch": _branch_meta(branch), **report.to_dict()}
    path = os.path.join(config.out, "report.json")
    serialize.atomic_write(path, serialize.report_json(doc))
    outputs = [path]
    if doc["matching"] is not None or doc["outer"] is not None:
        fits = os.path.join(config.out, "fits.csv")
        serialize.atomic_write(fits, serialize.fit_table_csv(branch, doc, h))
        outputs.append(fits)
    if failures:
        _emit({"error": {"code": 4, "kind": "assertion", "failures": failures,
                         "config_hash": h, "outputs": outputs}})
        return 4
    _emit({"status": "ok", "config_hash": h, "outputs": outputs})
    return 0


_COMMANDS = {
    "branch": cmd_branch,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "pohozaev": cmd_pohozaev,
}


def _parse_window(text: str):
    parts = text.split(",")
    try:
        a, b = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--window expects 'a,b', got {text!r}", ["window"]) from None
    return a, b


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfelab",
        description="Blow-up branches of the singular mean field equation on the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a run config JSON")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--window", help="continuation window 'a,b' (overrides the config)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        if args.out or args.window:
            raw = config.to_dict()
            if args.out:
                raw["out"] = args.out
            if args.window:
                a, b = _parse_window(args.window)
                raw["window"] = dict(raw["window"], start=a, end=b)
            config = RunConfig.from_dict(raw)
        return _COMMANDS[args.command](config)
    except (ConfigError, WeightSpecError, ParameterDomainError) as exc:
        _emit({"error": {"code": 2, "kind": type(exc).__name__, "message": str(exc),
                         "fields": getattr(exc, "fields", [])}})
        return 2
    except MfelabError as exc:
        _emit({"error": {"code": 3, "kind": type(exc).__name__, "message": str(exc)}})
        return 3


if __name__ == "__main__":
    sys.exit(main())
