"""Outside-in tracing of mfelab: wrappers around each layer's entry points.

The wrappers live here, not in the package: ``Tracer.install`` replaces
every binding of a traced function (the defining module, every mfelab
module that imported it by name, and module-level dicts such as the CLI's
command table) and ``Tracer.uninstall`` puts the originals back.  Spans
are kept in memory as ``Span`` records and written out by the caller when
the run ends.  ``layer_metrics`` turns a span list into the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (layer, attribute path in the layer's module): each entry point another
# layer or the user calls.  Helpers called only inside their own module
# (fd_weights, quad_weights, fmt, ...) are not boundaries; their time
# counts as the self time of the entry point that called them.
TRACED = (
    ("meshing", "RadialMesh.__init__"),
    ("meshing", "RadialMesh.quad_to"),
    ("meshing", "RadialMesh.lap_rows"),
    ("radial_solver", "newton_solve"),
    ("radial_solver", "continue_branch"),
    ("radial_solver", "find_fold_pair"),
    ("linearization", "build_mode_operator"),
    ("linearization", "mode_spectrum"),
    ("linearization", "nondegeneracy_scan"),
    ("linearization", "kernel_candidate"),
    ("linearization", "b0_projection"),
    ("diagnostics", "rate_law_fit"),
    ("diagnostics", "local_rate_law_fit"),
    ("diagnostics", "matching_residual"),
    ("diagnostics", "outer_profile_residual"),
    ("diagnostics", "pohozaev_residual"),
    ("diagnostics", "pohozaev_residual_linearized"),
    ("diagnostics", "psi1_gradient_check"),
    ("diagnostics", "uniqueness_probe"),
    ("diagnostics", "build_report"),
    ("greens", "regular_part"),
    ("serialize", "RunConfig.load"),
    ("serialize", "atomic_write"),
    ("serialize", "branch_csv"),
    ("serialize", "snapshot_csv"),
    ("serialize", "spectrum_csv"),
    ("serialize", "pohozaev_csv"),
    ("serialize", "fit_table_csv"),
    ("serialize", "report_json"),
    ("cli", "main"),
    ("cli", "cmd_branch"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_spectrum"),
    ("cli", "cmd_pohozaev"),
)

# per-layer metrics: (name, unit, better)
PER_LAYER = (
    ("meshing.build.calls", "count", "lower"),
    ("meshing.build.self_s", "s", "lower"),
    ("meshing.array_bytes", "bytes", "lower"),
    ("meshing.quad_to.calls", "count", "lower"),
    ("meshing.quad_to.self_s", "s", "lower"),
    ("meshing.lap_rows.calls", "count", "lower"),
    ("meshing.lap_rows.self_s", "s", "lower"),
    ("radial_solver.newton_solve.calls", "count", "lower"),
    ("radial_solver.newton_solve.self_s", "s", "lower"),
    ("radial_solver.newton_solve.fails", "count", "lower"),
    ("radial_solver.newton_iters", "count", "lower"),
    ("radial_solver.continue_branch.total_s", "s", "lower"),
    ("radial_solver.continue_branch.useful_ratio", "ratio", "higher"),
    ("radial_solver.find_fold_pair.calls", "count", "lower"),
    ("radial_solver.find_fold_pair.total_s", "s", "lower"),
    ("radial_solver.find_fold_pair.newton_calls", "count", "lower"),
    ("linearization.mode_spectrum.calls", "count", "lower"),
    ("linearization.mode_spectrum.self_s", "s", "lower"),
    ("linearization.mode_spectrum.fails", "count", "lower"),
    ("linearization.build_mode_operator.calls", "count", "lower"),
    ("linearization.build_mode_operator.self_s", "s", "lower"),
    ("linearization.nondegeneracy_scan.total_s", "s", "lower"),
    ("linearization.kernel_candidate.calls", "count", "lower"),
    ("linearization.kernel_candidate.self_s", "s", "lower"),
    ("diagnostics.calls", "count", "lower"),
    ("diagnostics.self_s", "s", "lower"),
    ("diagnostics.pohozaev.total_s", "s", "lower"),
    ("greens.regular_part.calls", "count", "lower"),
    ("greens.regular_part.self_s", "s", "lower"),
    ("serialize.write.calls", "count", "lower"),
    ("serialize.write.bytes", "bytes", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    """One traced call; ``parent`` is the index of the enclosing span or -1."""

    name: str
    parent: int
    start: float
    end: float = 0.0
    failed: bool = False
    info: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.failed, self.info]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


def _span_name(layer: str, path: str) -> str:
    attr = path.rsplit(".", 1)[-1]
    return f"{layer}.{'build' if attr == '__init__' else attr}"


def _nbytes(obj) -> int:
    import numpy as np

    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _annotate(name: str, args, result, info: dict) -> None:
    """Counts taken at the boundary where the work happens."""
    if name == "meshing.build":
        info["bytes"] = _nbytes(args[0])
    elif name == "radial_solver.newton_solve":
        info["iters"] = result.newton_iters
    elif name == "radial_solver.continue_branch":
        info["points"] = len(result.points)
    elif name == "serialize.atomic_write":
        info["bytes"] = len(args[1].encode("utf-8"))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (container, key, original, is_dict)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                _annotate(name, args, result, span.info)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every binding of every TRACED function in loaded mfelab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "mfelab" or k.startswith("mfelab.")]
        for layer, path in TRACED:
            home = importlib.import_module(f"mfelab.{layer}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self.wrap(_span_name(layer, path), original.__func__))
                else:
                    wrapper = self.wrap(_span_name(layer, path), original)
                self._set(cls, attr, original, wrapper, False)
                continue
            original = getattr(home, path)
            wrapper = self.wrap(_span_name(layer, path), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper, False)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._set(value, dkey, original, wrapper, True)

    def _set(self, container, key, original, wrapper, is_dict) -> None:
        if is_dict:
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._patches.append((container, key, original, is_dict))

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced, newest first."""
        while self._patches:
            container, key, original, is_dict = self._patches.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced invocation (all but trace.overhead_s)."""
    selfs = self_times(spans)
    m = {name: 0.0 for name, _, _ in PER_LAYER if name != "trace.overhead_s"}

    def of(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def layer_self(prefix):
        return sum(t for s, t in zip(spans, selfs) if s.name.startswith(prefix))

    for short in ("meshing.build", "meshing.quad_to", "meshing.lap_rows",
                  "radial_solver.newton_solve", "linearization.mode_spectrum",
                  "linearization.build_mode_operator", "linearization.kernel_candidate",
                  "greens.regular_part"):
        idx = of(short)
        m[f"{short}.calls"] = len(idx)
        m[f"{short}.self_s"] = sum(selfs[i] for i in idx)
    for short in ("radial_solver.newton_solve", "linearization.mode_spectrum"):
        m[f"{short}.fails"] = sum(spans[i].failed for i in of(short))
    m["meshing.array_bytes"] = sum(spans[i].info.get("bytes", 0) for i in of("meshing.build"))
    m["radial_solver.newton_iters"] = sum(
        spans[i].info.get("iters", 0) for i in of("radial_solver.newton_solve")
    )

    def total(*names):
        return sum(s.end - s.start for s in spans if s.name in names)

    branch = of("radial_solver.continue_branch")
    m["radial_solver.continue_branch.total_s"] = total("radial_solver.continue_branch")
    attempts = sum(
        1 for i in of("radial_solver.newton_solve")
        if _has_ancestor(spans, i, "radial_solver.continue_branch")
    )
    points = sum(spans[i].info.get("points", 0) for i in branch)
    m["radial_solver.continue_branch.useful_ratio"] = points / attempts if attempts else 0.0
    m["radial_solver.find_fold_pair.calls"] = len(of("radial_solver.find_fold_pair"))
    m["radial_solver.find_fold_pair.total_s"] = total("radial_solver.find_fold_pair")
    m["radial_solver.find_fold_pair.newton_calls"] = sum(
        1 for i in of("radial_solver.newton_solve")
        if _has_ancestor(spans, i, "radial_solver.find_fold_pair")
    )
    m["linearization.nondegeneracy_scan.total_s"] = total("linearization.nondegeneracy_scan")
    m["diagnostics.calls"] = sum(1 for s in spans if s.name.startswith("diagnostics."))
    m["diagnostics.self_s"] = layer_self("diagnostics.")
    m["diagnostics.pohozaev.total_s"] = total(
        "diagnostics.pohozaev_residual", "diagnostics.pohozaev_residual_linearized"
    )
    writes = of("serialize.atomic_write")
    m["serialize.write.calls"] = len(writes)
    m["serialize.write.bytes"] = sum(spans[i].info.get("bytes", 0) for i in writes)
    m["serialize.self_s"] = layer_self("serialize.")
    m["cli.self_s"] = layer_self("cli.")
    return m
