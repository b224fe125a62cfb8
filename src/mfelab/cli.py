"""Batch front-end: run configs in, branches and reports out.

Four subcommands over one JSON config format: `branch` writes the
continuation table plus per-point profile snapshots, `spectrum` the
per-mode eigenvalue scan, `pohozaev` the identity residuals, and `verify`
the diagnostics report of `diagnostics.build_report` checked against
configurable thresholds.  Outputs
are deterministic: files carry the config hash, floats are written with
17 significant digits, and writes are atomic.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 assertion
failure.  Failures are reported as one JSON object on stdout.  A config
whose arrays cannot be allocated (a huge ``window.steps``, ``k_max`` or
``mesh.nodes``) exits 3 with kind ``MemoryError``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import serialize
from .diagnostics import build_report, check_window, log_linear_fit, pohozaev_rows
from .errors import ConfigError, MfelabError, ParameterDomainError, WeightSpecError
from .linearization import nondegeneracy_scan
from .radial_solver import branch_targets, continue_branch
from .serialize import RunConfig


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _write(path: str, text: str) -> None:
    """``serialize.atomic_write``; a write that fails is a config error
    on ``out`` (exit 2), such as an ``out`` below a regular file."""
    try:
        serialize.atomic_write(path, text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}", ["out"]) from exc


def _snapshot(i: int) -> str:
    """The file name of branch point i's profile snapshot."""
    return f"u_{i:04d}.csv"


def _out_names(command: str, config: RunConfig) -> list[str]:
    """The names of the files ``command`` writes in ``config.out``, in
    write order; branch then writes one ``_snapshot`` per point."""
    if command == "verify":
        fits = {"matching", "outer"} & set(config.diagnostics)
        return ["report.json"] + (["fits.csv"] if fits else [])
    return [f"{command}.csv"]


def _check_out(out: str, names=(), snapshots: int = 0) -> None:
    """Refuse an ``out`` no write could use before anything is solved (exit 2).

    ``out`` must be a directory or not exist yet, and the nearest existing
    one of it and its ancestors a directory this process may write in; a
    dangling symlink exists, since ``makedirs`` cannot create through it.
    Nor may a file to be written in it, one of ``names`` or of the first
    ``snapshots`` snapshots, be a directory.  Nothing is created here:
    ``atomic_write`` makes the directories.
    """
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write output to {out!r}: {path!r} is not a writable directory",
                          ["out"])
    if not (os.path.isdir(out) and os.access(out, os.R_OK)):
        return  # out holds nothing yet, or cannot be listed: left to the writes
    # one pass over out's entries, however many snapshots the window asks for
    with os.scandir(out) as entries:
        for entry in entries:
            index = re.fullmatch(r"u_([0-9]+)\.csv", entry.name)
            i = int(index[1]) if index else snapshots
            written = entry.name in names or i < snapshots and _snapshot(i) == entry.name
            if written and entry.is_dir(follow_symlinks=False):
                raise ConfigError(f"cannot write output to {out!r}: {entry.path!r} is a directory",
                                  ["out"])


def _run_branch(config: RunConfig, companion: int | None = None):
    win = config.window
    return continue_branch(
        win["start"], win["end"], win["steps"], config.weight_spec(), config.mesh["nodes"],
        companion,
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
    paths = [os.path.join(out, name) for name in _out_names("branch", config)]
    _write(paths[0], serialize.branch_csv(branch, config.r0, h))
    for i, pt in enumerate(branch.points):
        p = os.path.join(out, _snapshot(i))
        _write(p, serialize.snapshot_csv(pt, h))
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
    path = os.path.join(config.out, _out_names("spectrum", config)[0])
    _write(path, serialize.spectrum_csv(scan, h))
    _emit({"status": "ok", "config_hash": h, "outputs": [path]})
    return 0


def cmd_pohozaev(config: RunConfig) -> int:
    branch = _run_branch(config)
    h = config.config_hash()
    if _branch_failed(branch, h):
        return 3
    kind, rows, _ = pohozaev_rows(branch, config.r0)
    rows = [(lam, kind, config.r0, res) for lam, res in rows]
    path = os.path.join(config.out, _out_names("pohozaev", config)[0])
    _write(path, serialize.pohozaev_csv(rows, h))
    _emit({"status": "ok", "config_hash": h, "outputs": [path]})
    return 0


def _companion_nodes(nodes: int) -> int:
    """The node count of verify's companion branch for a config of ``nodes``.

    Half the nodes, whose gap to the config's branch is the larger and so
    the stricter test of its mesh error; below 128 nodes, twice the nodes,
    since ``solver_mesh`` refuses fewer than 64.
    """
    return nodes // 2 if nodes >= 128 else 2 * nodes


def _verify_failures(config: RunConfig, branch, report) -> list:
    """The threshold gates on top of the report, as a list of failures.

    ``branch.companion`` is the continuation on ``_companion_nodes`` nodes,
    which ``cmd_verify`` asks for when ``diagnostics`` is not empty.  The
    mesh gate bounds rho's gap to the companion branch, which bounds the
    branch's own mesh error from above, so a config whose companion mesh is
    unresolved fails it.
    """
    if not config.diagnostics:
        return []
    thr = config.thresholds
    window = config.fit_window
    beta = 1.0 + config.alpha
    sigma_rate = 1.0 / (2.0 * beta)
    failures = []

    # branch-level control: the continuation must be mesh-converged
    nodes = _companion_nodes(config.mesh["nodes"])
    companion = branch.companion
    if companion.failure is not None:
        failures.append({"check": "mesh-convergence",
                         "detail": f"companion mesh ({nodes} nodes) did not converge"})
    else:
        rel = float(np.max(np.abs(companion.rhos - branch.rhos) / np.maximum(1.0, np.abs(branch.rhos))))
        if rel > thr["mesh_rtol"]:
            failures.append({
                "check": "mesh-convergence",
                "detail": f"rho differs by {rel:.3e} from the {nodes}-node companion "
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
    # the lambda grid alone decides a short fit window: fail it before any solve
    win = config.window
    targets = branch_targets(win["start"], win["end"], win["steps"])
    check_window(targets, config.fit_window, config.diagnostics)
    # the mesh gate's companion continuation comes with the branch, unless
    # the branch stops short; without diagnostics there is no gate to run it for
    branch = _run_branch(config, _companion_nodes(config.mesh["nodes"])
                         if config.diagnostics else None)
    if _branch_failed(branch, h):
        return 3
    report = build_report(
        branch, config.fit_window, config.r0, config.outer_radius, h,
        config.diagnostics, config.thresholds["r2_floor"],
    )
    failures = _verify_failures(config, branch, report)
    doc = {"branch": _branch_meta(branch), **report.to_dict()}
    outputs = [os.path.join(config.out, name) for name in _out_names("verify", config)]
    _write(outputs[0], serialize.report_json(doc))
    if len(outputs) > 1:  # the matching or outer diagnostic is on
        _write(outputs[1], serialize.fit_table_csv(branch, doc, h))
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
        if args.out is not None or args.window is not None:
            raw = config.to_dict()
            if args.out is not None:
                raw["out"] = args.out
            if args.window is not None:
                a, b = _parse_window(args.window)
                raw["window"] = dict(raw["window"], start=a, end=b)
            config = RunConfig.from_dict(raw)
        snapshots = config.window["steps"] if args.command == "branch" else 0
        _check_out(config.out, _out_names(args.command, config), snapshots)
        return _COMMANDS[args.command](config)
    except (ConfigError, WeightSpecError, ParameterDomainError) as exc:
        _emit({"error": {"code": 2, "kind": type(exc).__name__, "message": str(exc),
                         "fields": getattr(exc, "fields", [])}})
        return 2
    except MfelabError as exc:
        _emit({"error": {"code": 3, "kind": type(exc).__name__, "message": str(exc)}})
        return 3
    except MemoryError as exc:
        # numpy raises a private subclass; the record names the public class
        _emit({"error": {"code": 3, "kind": "MemoryError", "message": str(exc)}})
        return 3


if __name__ == "__main__":
    sys.exit(main())
