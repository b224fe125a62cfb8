"""The three benchmark workloads: config generation and output checks.

Every workload runs alpha = 0.5 with a gaussian weight.  Seed 0 is the
acceptance configuration (coef +0.25) and is compared against the
reference values recorded in ``reference/``; any other seed draws coef
from [0.22, 0.28] and gets the physics gates only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# name -> (subcommand, config fields besides alpha, hstar and out)
WORKLOADS = {
    # the paper's headline check: mesh building and diagnostics quadrature
    # dominate, and the doubled-mesh continuation runs behind the mesh gate
    "verify_gauss512": ("verify", {
        "window": {"start": 6.0, "end": 15.0, "steps": 19},
        "mesh": {"nodes": 512},
        "fit_window": [8.0, 14.0],
        "diagnostics": ["rate", "local_rate", "matching", "outer", "pohozaev", "uniqueness"],
    }),
    # 17 points x 17 modes = 289 shift-invert spectra; linearization does
    # most of the work and diagnostics none
    "spectrum_modes16": ("spectrum", {
        "window": {"start": 6.0, "end": 14.0, "steps": 17},
        "mesh": {"nodes": 512},
        "k_max": 16,
    }),
    # one fold in [2, 8] at 1024 nodes: Newton and fold-pair root finding,
    # and the n^2-dense meshes each point keeps
    "fold_pohozaev1024": ("pohozaev", {
        "window": {"start": 2.0, "end": 8.0, "steps": 25},
        "mesh": {"nodes": 1024},
    }),
}

OUT_DIR = "out"
REL_TOL = 1e-12  # lambda and rho against the reference
# eig_min comes from an iterative eigensolver (ARPACK), so it gets a looser
# tolerance than the directly solved lambda and rho
EIG_REL_TOL = 1e-8
POHOZAEV_TOL = 1e-8


def coef_for(seed: int) -> float:
    return 0.25 if seed == 0 else random.Random(seed).uniform(0.22, 0.28)


def make_config(name: str, seed: int) -> dict:
    _, fields = WORKLOADS[name]
    config = {
        "schema": "mfelab/1",
        "alpha": 0.5,
        "hstar": {"kind": "gaussian", "coef": coef_for(seed)},
        "out": OUT_DIR,
    }
    config.update(json.loads(json.dumps(fields)))
    return config


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _key_paths(obj, prefix="") -> list[str]:
    if not isinstance(obj, dict):
        return []
    out = []
    for key, value in obj.items():
        path = f"{prefix}{key}"
        out.append(path)
        out.extend(_key_paths(value, path + "."))
    return sorted(out)


def extract(name: str, workdir: str) -> dict:
    """The values of a finished run that the checks and the reference use."""
    out = os.path.join(workdir, OUT_DIR)
    command = WORKLOADS[name][0]
    if command == "verify":
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        branch = report["branch"]
        return {"keys": _key_paths(report), "lambda": branch["lambda"], "rho": branch["rho"],
                "failure": branch["failure"]}
    if command == "spectrum":
        rows = _csv_rows(os.path.join(out, "spectrum.csv"))
        return {"lambda": [float(r["lambda"]) for r in rows],
                "eig_min": [float(r["eig_min"]) for r in rows],
                "kernel_flag": [int(r["kernel_flag"]) for r in rows]}
    rows = _csv_rows(os.path.join(out, "pohozaev.csv"))
    return {"lambda": [float(r["lambda"]) for r in rows],
            "kind": [r["kind"] for r in rows],
            "residual": [float(r["residual"]) for r in rows]}


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def _max_rel(got, want) -> float:
    if len(got) != len(want):
        return math.inf
    return max((abs(g - w) / max(abs(w), 1e-300) for g, w in zip(got, want)), default=0.0)


def check(name: str, seed: int, values: dict, reference: dict | None):
    """Problems found in one run's outputs, and the largest relative
    deviation from the reference (0.0 when there is none to compare)."""
    problems = []
    lam = values["lambda"]
    for key in ("lambda", "rho", "eig_min", "residual"):
        if not all(math.isfinite(v) for v in values.get(key, ())):
            problems.append(f"non-finite {key} in the outputs")
    command, fields = WORKLOADS[name]
    if command == "verify":
        if values["failure"] is not None:
            problems.append(f"branch failure {values['failure']}")
        if any(b <= a for a, b in zip(lam, lam[1:])):
            problems.append("lambda does not increase along the branch")
        if len(lam) != fields["window"]["steps"]:
            problems.append(f"{len(lam)} branch points, expected {fields['window']['steps']}")
    elif command == "spectrum":
        expected = fields["window"]["steps"] * (fields["k_max"] + 1)
        if len(lam) != expected:
            problems.append(f"{len(lam)} spectrum rows, expected {expected}")
        if any(values["kernel_flag"]):
            problems.append("kernel_flag set on a mode")
    else:
        if not values["kind"] or any(k != "pair" for k in values["kind"]):
            problems.append(f"pohozaev kinds {values['kind']}, expected one fold pair")
        worst = max((abs(r) for r in values["residual"]), default=math.inf)
        if not worst <= POHOZAEV_TOL:
            problems.append(f"pohozaev |residual| {worst:.3e} > {POHOZAEV_TOL:.0e}")

    if command == "verify" and reference is not None and values["keys"] != reference["keys"]:
        problems.append("report.json keys differ from the reference")
    deviation = 0.0
    if seed == 0 and reference is not None:
        for key, tol in (("lambda", REL_TOL), ("rho", REL_TOL), ("eig_min", EIG_REL_TOL)):
            if key in reference:
                dev = _max_rel(values[key], reference[key])
                deviation = max(deviation, dev)
                if not dev <= tol:
                    problems.append(f"{key} deviates {dev:.3e} from the reference (tol {tol:.0e})")
    return problems, deviation
