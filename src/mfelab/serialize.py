"""Run configurations, content hashing, and deterministic file output.

A run is described by one JSON document.  Unknown fields are rejected and
every omitted field is filled from documented defaults, so the normalized
form is canonical: its sha256 is the run's identity and is embedded in
every file the run writes.  All writers format floats with 17 significant
digits and replace files atomically, which makes reruns byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass

from .diagnostics import DIAGNOSTIC_NAMES
from .errors import ConfigError, ParameterDomainError, WeightSpecError
from .greens import WeightSpec, validate_alpha

SCHEMA = "mfelab/1"

DEFAULTS = {
    "mesh": {"nodes": 512},
    "window": {"start": 6.0, "end": 15.0, "steps": 19},
    "fit_window": [8.0, 14.0],
    "diagnostics": list(DIAGNOSTIC_NAMES),
    "r0": 0.25,
    "outer_radius": 0.5,
    "k_max": 8,
    "out": "out",
    # rate_slope_rtol is deliberately loose: the window slope carries the
    # universal e^(-lambda) correction on top of the gradient law
    "thresholds": {
        "rate_slope_rtol": 0.10,
        "r2_floor": 0.99,
        "decay_margin": 0.9,
        "pohozaev_tol": 1e-6,
        "mesh_rtol": 1e-6,
    },
}


def _is_finite_number(value) -> bool:
    """A JSON number that is a finite float.  Python's json accepts NaN and
    +-Infinity, which would slip past every bound check (comparisons with
    NaN are false), and integers too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_number(out, errors, section, key, value, lo=None, hi=None):
    name = f"{section}.{key}" if section else key
    if not _is_finite_number(value):
        errors.append(name)
        return
    value = float(value)
    if lo is not None and value < lo:
        errors.append(name)
        return
    if hi is not None and value > hi:
        errors.append(name)
        return
    out[key] = value


def _merge_section(raw, section, errors):
    base = dict(DEFAULTS[section])
    given = raw.get(section, {})
    if not isinstance(given, dict):
        errors.append(section)
        return base
    for key in given:
        if key not in base:
            errors.append(f"{section}.{key}")
    for key in base:
        if key in given:
            base[key] = given[key]
    return base


def _parse_hstar(hraw, faults) -> dict:
    """The normalized weight section; a fault goes into ``faults`` as
    field -> message."""
    if not isinstance(hraw, dict) or "kind" not in hraw:
        faults["hstar.kind"] = "hstar needs a kind"
        return {}
    kind = hraw["kind"]
    hstar: dict = {"kind": kind}
    if kind == "poly":
        coeffs = hraw.get("coeffs")
        extra = set(hraw) - {"kind", "coeffs"}
        ok = isinstance(coeffs, list) and coeffs and all(_is_finite_number(c) for c in coeffs)
        if extra or not ok:
            faults["hstar.coeffs"] = "hstar.coeffs must be a finite number list"
        else:
            hstar["coeffs"] = [float(c) for c in coeffs]
    elif kind in ("constant", "gaussian"):
        extra = set(hraw) - {"kind", "coef"}
        coef = hraw.get("coef", 1.0)
        if extra or not _is_finite_number(coef):
            faults["hstar.coef"] = "hstar.coef must be a finite number"
        else:
            hstar["coef"] = float(coef)
    else:
        faults["hstar.kind"] = f"unknown hstar kind {kind!r}"
    return hstar


@dataclass(frozen=True)
class RunConfig:
    """Normalized run description; hash-stable once constructed."""

    alpha: float
    hstar: dict
    mesh: dict
    window: dict
    fit_window: tuple
    diagnostics: tuple
    r0: float
    outer_radius: float
    k_max: int
    out: str
    thresholds: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object", ["<root>"])
        known = {
            "schema", "alpha", "hstar", "mesh", "window", "fit_window",
            "diagnostics", "r0", "outer_radius", "k_max", "out", "thresholds",
        }
        errors = [k for k in raw if k not in known]
        if raw.get("schema", SCHEMA) != SCHEMA:
            errors.append("schema")
        # alpha and hstar faults carry their own message, used when one of
        # them is the only fault; all faults are collected before raising
        faults: dict = {}
        alpha = raw.get("alpha")
        if "alpha" not in raw:
            errors.append("alpha")
        elif not _is_finite_number(alpha):
            faults["alpha"] = "alpha must be a finite number"
        else:
            try:
                alpha = validate_alpha(alpha)
            except ParameterDomainError as exc:
                faults["alpha"] = str(exc)
        if "hstar" not in raw:
            errors.append("hstar")
        else:
            hstar = _parse_hstar(raw["hstar"], faults)
            if "alpha" in raw and not faults:
                # WeightSpec owns the sign and positivity rules of hstar
                try:
                    WeightSpec(alpha=alpha, **hstar)
                except WeightSpecError as exc:
                    faults["hstar.coeffs" if hstar["kind"] == "poly" else "hstar.coef"] = str(exc)
        errors.extend(faults)

        nodes = _merge_section(raw, "mesh", errors)["nodes"]
        if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < 64:
            errors.append("mesh.nodes")

        win_raw = _merge_section(raw, "window", errors)
        window: dict = {}
        _require_number(window, errors, "window", "start", win_raw["start"], lo=0.0)
        _require_number(window, errors, "window", "end", win_raw["end"], lo=0.0)
        steps = win_raw["steps"]
        if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
            errors.append("window.steps")
        else:
            window["steps"] = steps
        if "start" in window and "end" in window:
            if window["end"] < window["start"]:
                errors.append("window.end")
            elif window.get("steps") == 1 and window["end"] > window["start"]:
                # one step solves lambda = start only and would drop the end
                errors.append("window.steps")

        fit_raw = raw.get("fit_window", DEFAULTS["fit_window"])
        fit_window = ()
        if (
            isinstance(fit_raw, list)
            and len(fit_raw) == 2
            and all(_is_finite_number(v) for v in fit_raw)
            and float(fit_raw[0]) < float(fit_raw[1])
        ):
            fit_window = (float(fit_raw[0]), float(fit_raw[1]))
        else:
            errors.append("fit_window")

        diag_raw = raw.get("diagnostics", DEFAULTS["diagnostics"])
        if not isinstance(diag_raw, list) or any(d not in DIAGNOSTIC_NAMES for d in diag_raw):
            errors.append("diagnostics")
            diag_raw = []
        diagnostics = tuple(dict.fromkeys(diag_raw))

        scalars: dict = {}
        _require_number(scalars, errors, "", "r0", raw.get("r0", DEFAULTS["r0"]), lo=1e-6, hi=1.0 - 1e-9)
        _require_number(
            scalars, errors, "", "outer_radius",
            raw.get("outer_radius", DEFAULTS["outer_radius"]), lo=1e-6, hi=1.0 - 1e-9,
        )
        k_max = raw.get("k_max", DEFAULTS["k_max"])
        if isinstance(k_max, bool) or not isinstance(k_max, int) or k_max < 0:
            errors.append("k_max")
        out = raw.get("out", DEFAULTS["out"])
        if not isinstance(out, str) or not out:
            errors.append("out")

        thr_raw = _merge_section(raw, "thresholds", errors)
        thresholds: dict = {}
        for key in DEFAULTS["thresholds"]:
            _require_number(thresholds, errors, "thresholds", key, thr_raw.get(key), lo=0.0)

        if errors:
            fields = sorted(set(errors))
            if len(fields) == 1 and fields[0] in faults:
                raise ConfigError(faults[fields[0]], fields)
            raise ConfigError("invalid config fields: " + ", ".join(fields), fields)
        return cls(
            alpha=alpha,
            hstar=hstar,
            mesh={"nodes": nodes},
            window=window,
            fit_window=fit_window,
            diagnostics=diagnostics,
            r0=scalars["r0"],
            outer_radius=scalars["outer_radius"],
            k_max=k_max,
            out=out,
            thresholds=thresholds,
        )

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", ["<path>"]) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}", ["<json>"]) from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "alpha": self.alpha,
            "hstar": dict(self.hstar),
            "mesh": dict(self.mesh),
            "window": dict(self.window),
            "fit_window": list(self.fit_window),
            "diagnostics": list(self.diagnostics),
            "r0": self.r0,
            "outer_radius": self.outer_radius,
            "k_max": self.k_max,
            "out": self.out,
            "thresholds": dict(self.thresholds),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def weight_spec(self) -> WeightSpec:
        return WeightSpec(alpha=self.alpha, **self.hstar)


def fmt(x) -> str:
    """17-significant-digit float format; round-trips every double."""
    return f"{float(x):.17g}"


def atomic_write(path: str, text: str) -> None:
    """Write via a sibling temp file and rename; readers never see partials.

    The file gets the mode a plain ``open(path, "w")`` would give it, 0o666
    less the umask, in place of ``mkstemp``'s owner-only 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(config_hash: str) -> str:
    return f"# config {config_hash}\n"


def branch_csv(branch, r0: float, config_hash: str) -> str:
    """One row per branch point; fold_flag marks points opening a fold."""
    lines = [_header(config_hash)]
    lines.append("lambda,rho,sigma,gamma,mass_total,local_mass_r0,res_norm,fold_flag\n")
    flagged = set(branch.fold_flags)
    for i, pt in enumerate(branch.points):
        row = (
            fmt(pt.lam), fmt(pt.rho), fmt(pt.sigma), fmt(pt.gamma),
            fmt(pt.mass_total), fmt(pt.local_mass(r0)), fmt(pt.res_norm),
            "1" if i in flagged else "0",
        )
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def snapshot_csv(point, config_hash: str) -> str:
    """Two-column radial profile sample (radius, u)."""
    beta = 1.0 + point.spec.alpha
    lines = [_header(config_hash), "radius,u\n"]
    for t, u in zip(point.mesh.t, point.u):
        lines.append(f"{fmt(t ** (1.0 / beta))},{fmt(u)}\n")
    return "".join(lines)


def spectrum_csv(scan, config_hash: str) -> str:
    lines = [_header(config_hash), "lambda,k,eig_min,eig_min_next,kernel_flag\n"]
    for lam, k, emin, enext, flag in scan.rows():
        lines.append(f"{fmt(lam)},{k},{fmt(emin)},{fmt(enext)},{1 if flag else 0}\n")
    return "".join(lines)


def pohozaev_csv(rows, config_hash: str) -> str:
    """Rows of (lambda, kind, radius, residual)."""
    lines = [_header(config_hash), "lambda,kind,radius,residual\n"]
    for lam, kind, radius, res in rows:
        lines.append(f"{fmt(lam)},{kind},{fmt(radius)},{fmt(res)}\n")
    return "".join(lines)


def fit_table_csv(branch, report_dict: dict, config_hash: str) -> str:
    """Plot-ready per-point series behind the fitted lines."""
    lines = [_header(config_hash)]
    cols = ["lambda", "rho"]
    series = []
    for key in ("matching", "outer"):
        vals = report_dict.get(key)
        if vals is not None:
            cols.append(key)
            series.append(vals)
    lines.append(",".join(cols) + "\n")
    for i, pt in enumerate(branch.points):
        row = [fmt(pt.lam), fmt(pt.rho)]
        row.extend(fmt(vals[i]) for vals in series)
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def report_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
