"""Self-check of the benchmark's own pieces.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs in a few seconds: one small traced ``mfelab branch`` in process, plus
the span arithmetic and the printer on synthetic data.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, TRACED, Span, Tracer, layer_metrics, self_times  # noqa: E402


def _bindings():
    """Every value a traced run could replace: module globals, module-level
    dict entries and class attributes, keyed by where they live."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "mfelab" and not modname.startswith("mfelab."):
            continue
        for key, value in vars(mod).items():
            out[(modname, key)] = value
            if isinstance(value, dict) and not key.startswith("__"):
                for dkey, dval in value.items():
                    out[(modname, key, dkey)] = dval
            if isinstance(value, type) and value.__module__ == modname:
                for attr, aval in vars(value).items():
                    out[(modname, key, "." + attr)] = aval
    return out


def _traced_branch(tmp_path):
    from mfelab import cli

    config = {"schema": "mfelab/1", "alpha": 0.5, "hstar": {"kind": "gaussian", "coef": 0.25},
              "window": {"start": 6.0, "end": 7.0, "steps": 3}, "mesh": {"nodes": 96},
              "out": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {
            "cli table": hasattr(cli._COMMANDS["branch"], "__wrapped__"),
            "cli import": hasattr(cli.continue_branch, "__wrapped__"),
            "diagnostics import": hasattr(sys.modules["mfelab.diagnostics"].kernel_candidate,
                                          "__wrapped__"),
            "package export": hasattr(sys.modules["mfelab"].newton_solve, "__wrapped__"),
        }
        t0 = time.perf_counter()
        rc = cli.main(["branch", "--config", str(path)])
        run_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer.spans, run_s, wrapped


def test_traced_run_self_times_and_unwrap(tmp_path):
    import mfelab.cli  # noqa: F401  load every module before the snapshot

    before = _bindings()
    spans, run_s, wrapped = _traced_branch(tmp_path)
    assert all(wrapped.values()), wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed

    names = {s.name for s in spans}
    assert {"cli.main", "cli.cmd_branch", "radial_solver.continue_branch",
            "radial_solver.newton_solve", "meshing.build", "serialize.atomic_write"} <= names
    selfs = self_times(spans)
    assert all(t >= 0.0 for t in selfs)
    assert sum(selfs) <= run_s
    m = layer_metrics(spans)
    assert m["meshing.build.calls"] == 3
    assert m["radial_solver.continue_branch.useful_ratio"] == 1.0
    assert m["serialize.write.calls"] == 4  # branch.csv plus three snapshots


def test_self_times_of_nested_spans():
    spans = [
        Span("cli.main", -1, 0.0, 10.0),
        Span("radial_solver.continue_branch", 0, 1.0, 6.0),
        Span("meshing.build", 1, 1.5, 2.5),
        Span("radial_solver.newton_solve", 1, 3.0, 5.0),
        Span("meshing.lap_rows", 3, 3.0, 3.5),
        Span("serialize.atomic_write", 0, 7.0, 7.5, info={"bytes": 12}),
    ]
    selfs = self_times(spans)
    assert selfs == [4.5, 2.0, 1.0, 1.5, 0.5, 0.5]
    assert sum(selfs) == 10.0
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 4.5
    assert m["radial_solver.newton_solve.self_s"] == 1.5
    assert m["serialize.write.bytes"] == 12


def test_failed_span_recorded():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("radial_solver.newton_solve", boom)
    try:
        traced()
    except ValueError:
        pass
    assert tracer.spans[0].failed and tracer.spans[0].end >= tracer.spans[0].start
    assert layer_metrics(tracer.spans)["radial_solver.newton_solve.fails"] == 1


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_printer_emits_every_metric_with_unit():
    bench = _benchmark_json()
    samples = {"run_s": [1.0, 1.2], "setup_s": [0.5, 0.7], "peak_rss_mb": [300.0, 301.0],
               "traced_run_s": [1.3]}
    layers = [{name: 1.0 for name, _, _ in PER_LAYER if name != "trace.overhead_s"}]
    for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
        result = {"correct": True, "attempted": 2, "failed": 0, "deviation": 0.0,
                  "problems": [], "env": {},
                  "metrics": run.summarize(samples, layers if trace else None)}
        lines = run.report_lines(result)
        final = json.loads(run.final_line(result))
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert list(final["metrics"]) == [d["name"] for d in declared]
        for d in declared:
            assert final["metrics"][d["name"]]["unit"] == d["unit"]
            assert any(line.startswith(d["name"] + " ") and line.endswith(" " + d["unit"])
                       for line in lines), d["name"]
        assert any(line.startswith("fail_frac ") for line in lines)


def test_benchmark_json_matches_harness():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {t[0] for t in TRACED} == {"meshing", "radial_solver", "linearization",
                                       "diagnostics", "greens", "serialize", "cli"}


def test_seed_zero_is_the_acceptance_config():
    assert workloads.coef_for(0) == 0.25
    coefs = [workloads.coef_for(s) for s in range(1, 50)]
    assert all(0.22 <= c <= 0.28 for c in coefs)
    assert workloads.make_config("fold_pohozaev1024", 7) == workloads.make_config(
        "fold_pohozaev1024", 7)
