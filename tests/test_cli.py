"""Config validation, deterministic output files, and the four subcommands."""

import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys

import pytest

from mfelab import cli, diagnostics, linearization, radial_solver, serialize
from mfelab.cli import main
from mfelab.errors import ConfigError, SolverError
from mfelab.serialize import RunConfig, atomic_write, fmt

ALPHA = 0.5


def base_config(out, **overrides):
    cfg = {
        "schema": "mfelab/1",
        "alpha": ALPHA,
        "hstar": {"kind": "gaussian", "coef": 0.25},
        "out": str(out),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


class TestRunConfig:
    def test_hash_ignores_key_order(self):
        a = RunConfig.from_dict({"schema": "mfelab/1", "alpha": 0.5, "hstar": {"kind": "constant"}})
        b = RunConfig.from_dict({"hstar": {"coef": 1.0, "kind": "constant"}, "alpha": 0.5})
        assert a.config_hash() == b.config_hash()

    def test_roundtrip_is_stable(self):
        a = RunConfig.from_dict(base_config("x"))
        b = RunConfig.from_dict(a.to_dict())
        assert a == b
        assert a.canonical_json() == b.canonical_json()

    def test_defaults_fill_in(self):
        cfg = RunConfig.from_dict({"alpha": 0.5, "hstar": {"kind": "constant"}})
        assert cfg.mesh["nodes"] == 512
        assert cfg.window == {"start": 6.0, "end": 15.0, "steps": 19}
        assert cfg.fit_window == (8.0, 14.0)
        assert cfg.r0 == 0.25
        assert cfg.thresholds["pohozaev_tol"] == 1e-6

    def test_integer_alpha_message(self):
        with pytest.raises(ConfigError, match="alpha must be non-integer"):
            RunConfig.from_dict({"alpha": 1, "hstar": {"kind": "constant"}})

    def test_unknown_fields_listed(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(
                {"alpha": 0.5, "hstar": {"kind": "constant"}, "typo": 1, "oops": 2}
            )
        assert err.value.fields == ["oops", "typo"]

    def test_bad_section_values_listed(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(base_config("x", mesh={"nodes": 31}, r0=1.5))
        assert "mesh.nodes" in err.value.fields
        assert "r0" in err.value.fields

    def test_unknown_diagnostic_rejected(self):
        with pytest.raises(ConfigError, match="diagnostics"):
            RunConfig.from_dict(base_config("x", diagnostics=["rate", "bogus"]))

    def test_weight_and_mesh_factories(self):
        cfg = RunConfig.from_dict(base_config("x"))
        assert cfg.weight_spec().kind == "gaussian"
        # the mesh section takes only the node count
        assert cfg.mesh == serialize.DEFAULTS["mesh"] == {"nodes": 512}


@pytest.mark.parametrize("command", ["branch", "spectrum", "pohozaev", "verify"])
def test_unusable_out_is_a_config_error(tmp_path, capfd, monkeypatch, command):
    # an out that is a regular file, or lies below one, cannot be written:
    # one exit-2 record that names out, before anything is solved or forked,
    # no traceback and nothing created
    (tmp_path / "afile").write_text("")
    forks, solves = _count_forks(monkeypatch), []
    monkeypatch.setattr(radial_solver, "newton_solve", lambda *a, **k: solves.append(a))
    for out in (tmp_path / "afile" / "sub", tmp_path / "afile"):
        cfg = base_config(
            out,
            mesh={"nodes": 64},
            window={"start": 0.5, "end": 1.5, "steps": 3},
            diagnostics=["rate"],
            k_max=1,
        )
        code = main([command, "--config", write_config(tmp_path, "c.json", cfg)])
        stdout, err = capfd.readouterr()
        assert code == 2
        assert err == ""
        (line,) = stdout.splitlines()
        assert json.loads(line)["error"]["fields"] == ["out"]
        assert solves == [] and forks == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.json"]


def test_out_that_may_be_made_passes_the_check(tmp_path):
    # a missing out below a writable directory, and an existing directory,
    # are usable; the check creates nothing
    cli._check_out(str(tmp_path / "a" / "b"))
    cli._check_out(str(tmp_path))
    assert list(tmp_path.iterdir()) == []


class TestSerializeHelpers:
    def test_fmt_roundtrips_doubles(self):
        import math
        for x in (math.pi, 1.0 / 3.0, 1e-300, -37.69911184307752, 0.0):
            assert float(fmt(x)) == x

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "a" / "f.txt"
        atomic_write(str(path), "one\n")
        atomic_write(str(path), "two\n")
        assert path.read_text() == "two\n"
        assert [p for p in os.listdir(tmp_path / "a") if p.startswith(".tmp")] == []


class TestBranchCommand:
    def test_minimal_config_row_count(self, tmp_path, capsys):
        cfg = {
            "schema": "mfelab/1",
            "alpha": 0.5,
            "hstar": {"kind": "constant", "coef": 1.0},
            "mesh": {"nodes": 64},
            "window": {"start": 0.0, "end": 2.0, "steps": 4},
            "out": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, "min.json", cfg)
        code, msg = run(["branch", "--config", path], capsys)
        assert code == 0
        lines = (tmp_path / "out" / "branch.csv").read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "lambda,rho,sigma,gamma,mass_total,local_mass_r0,res_norm,fold_flag"
        assert len(lines) == 2 + 4
        for i in range(4):
            snap = (tmp_path / "out" / f"u_{i:04d}.csv").read_text().splitlines()
            assert snap[1] == "radius,u"
            assert len(snap) == 2 + 64
        assert msg["config_hash"] in lines[0]

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = {
            "schema": "mfelab/1",
            "alpha": 0.5,
            "hstar": {"kind": "constant", "coef": 1.0},
            "mesh": {"nodes": 64},
            "window": {"start": 0.0, "end": 2.0, "steps": 4},
            "out": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, "min.json", cfg)
        assert main(["branch", "--config", path]) == 0
        first = (tmp_path / "out" / "branch.csv").read_bytes()
        assert main(["branch", "--config", path]) == 0
        assert (tmp_path / "out" / "branch.csv").read_bytes() == first

    def test_integer_alpha_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"alpha": 2, "hstar": {"kind": "constant"}})
        code, msg = run(["branch", "--config", path], capsys)
        assert code == 2
        assert msg["error"]["message"] == "alpha must be non-integer"

    def test_missing_config_file(self, tmp_path, capsys):
        code, msg = run(["branch", "--config", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "cannot read config" in msg["error"]["message"]

    def test_window_and_out_flags(self, tmp_path, capsys):
        cfg = {
            "schema": "mfelab/1",
            "alpha": 0.5,
            "hstar": {"kind": "constant", "coef": 1.0},
            "mesh": {"nodes": 64},
            "window": {"start": 0.0, "end": 2.0, "steps": 4},
            "out": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, "min.json", cfg)
        other = tmp_path / "other"
        code, msg = run(
            ["branch", "--config", path, "--out", str(other), "--window", "0.5,1.5"], capsys
        )
        assert code == 0
        assert (other / "branch.csv").exists()
        lines = (other / "branch.csv").read_text().splitlines()
        assert len(lines) == 2 + 4  # steps kept, endpoints overridden
        first_lam = float(lines[2].split(",")[0])
        assert abs(first_lam - 0.5) < 1e-9

    def test_one_step_window_with_an_end_exit_code(self, tmp_path, capsys):
        # linspace(6, 14, 1) is [6]: one step cannot reach the end
        cfg = base_config(tmp_path / "o", window={"start": 6.0, "end": 14.0, "steps": 1})
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(cfg)
        assert err.value.fields == ["window.steps"]
        code, msg = run(["spectrum", "--config", write_config(tmp_path, "c.json", cfg)], capsys)
        assert code == 2
        assert msg["error"]["fields"] == ["window.steps"]
        assert not (tmp_path / "o").exists()
        one = RunConfig.from_dict(dict(cfg, window={"start": 6.0, "end": 6.0, "steps": 1}))
        assert one.window == {"start": 6.0, "end": 6.0, "steps": 1}

    @pytest.mark.parametrize(
        "overrides, field, message",
        [
            ({"alpha": 1.0000000000001}, "alpha", "alpha must be non-integer"),
            ({"hstar": {"kind": "constant", "coef": -1}}, "hstar.coef",
             "constant hstar must be positive"),
            ({"hstar": {"kind": "poly", "coeffs": [1, -3]}}, "hstar.coeffs",
             "poly hstar must be positive on the disk"),
        ],
    )
    def test_alpha_and_weight_rules_checked_with_the_config(
        self, tmp_path, capsys, overrides, field, message
    ):
        # found while reading the config, before any output is written
        cfg = base_config(tmp_path / "o", **overrides)
        code, msg = run(["branch", "--config", write_config(tmp_path, "c.json", cfg)], capsys)
        assert code == 2
        assert msg["error"]["fields"] == [field]
        assert msg["error"]["message"] == message
        assert not (tmp_path / "o").exists()

    def test_malformed_window_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", base_config(tmp_path / "o"))
        code, msg = run(["branch", "--config", path, "--window", "6;10"], capsys)
        assert code == 2


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """One full default verify run shared by the assertions below."""
    tmp = tmp_path_factory.mktemp("verify")
    cfg = base_config(tmp / "out")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(path)])
    report = json.loads((tmp / "out" / "report.json").read_text())
    return code, str(path), tmp, report


class TestVerifyCommand:
    def test_acceptance_config_passes(self, verify_run):
        code, _, tmp, report = verify_run
        assert code == 0
        assert set(report) == {
            "branch", "rate_fit", "local_rate_fit", "matching", "outer",
            "pohozaev", "b0", "window", "config_hash",
        }
        slope = report["rate_fit"]["slope"]
        assert abs(slope + 2.0 / 3.0) <= 0.10 * (2.0 / 3.0)
        assert max(abs(v) for v in report["pohozaev"]["values"]) <= 1e-6
        assert (tmp / "out" / "fits.csv").exists()

    def test_rerun_byte_identical(self, verify_run, capsys):
        code, cfg_path, tmp, _ = verify_run
        report = (tmp / "out" / "report.json").read_bytes()
        fits = (tmp / "out" / "fits.csv").read_bytes()
        assert main(["verify", "--config", cfg_path]) == 0
        assert (tmp / "out" / "report.json").read_bytes() == report
        assert (tmp / "out" / "fits.csv").read_bytes() == fits

    def test_coarse_mesh_failure_named(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path / "out",
            mesh={"nodes": 64},
            window={"start": 6.0, "end": 14.0, "steps": 9},
        )
        path = write_config(tmp_path, "coarse.json", cfg)
        code, msg = run(["verify", "--config", path], capsys)
        assert code == 4
        checks = {f["check"] for f in msg["error"]["failures"]}
        assert "mesh-convergence" in checks

    def test_r2_flag_and_gate_read_the_config_floor(self, tmp_path, capsys):
        # r^2 lands between the default floor 0.99 and the config's 0.999:
        # the report's r2_ok and the rate-fit-quality gate must agree
        cfg = base_config(
            tmp_path / "out",
            mesh={"nodes": 256},
            diagnostics=["rate"],
            fit_window=[6.0, 15.0],
            thresholds={"r2_floor": 0.999, "rate_slope_rtol": 0.5},
        )
        code, msg = run(["verify", "--config", write_config(tmp_path, "r2.json", cfg)], capsys)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 0.99 < report["rate_fit"]["r_squared"] < 0.999
        assert report["rate_fit"]["r2_ok"] is False
        assert code == 4
        assert [f["check"] for f in msg["error"]["failures"]] == ["rate-fit-quality"]

    def test_empty_toggles_metadata_only(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", diagnostics=[])
        path = write_config(tmp_path, "meta.json", cfg)
        code, msg = run(["verify", "--config", path], capsys)
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["rate_fit"] is None
        assert report["pohozaev"] is None
        assert len(report["branch"]["lambda"]) == 19
        assert msg["outputs"] == [str(tmp_path / "out" / "report.json")]

    def test_fold_window_reports_pair(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path / "out",
            window={"start": 2.0, "end": 8.0, "steps": 25},
            diagnostics=["pohozaev"],
        )
        path = write_config(tmp_path, "fold.json", cfg)
        code, msg = run(["verify", "--config", path], capsys)
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pohozaev"]["kind"] == "pair"
        assert abs(report["pohozaev"]["values"][0]) <= 1e-8
        assert abs(report["b0"][0] - 1.01358) <= 1e-4

    def test_fold_pair_solved_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = radial_solver.find_fold_pair

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (cli, diagnostics, linearization, radial_solver):
            if hasattr(mod, "find_fold_pair"):
                monkeypatch.setattr(mod, "find_fold_pair", counting)
        cfg = base_config(
            tmp_path / "out",
            window={"start": 2.0, "end": 8.0, "steps": 25},
            diagnostics=["pohozaev"],
        )
        path = write_config(tmp_path, "fold.json", cfg)
        code, _ = run(["verify", "--config", path], capsys)
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["branch"]["fold_flags"]) == 1
        assert len(calls) == 1
        code, _ = run(["pohozaev", "--config", path], capsys)
        assert code == 0
        lines = (tmp_path / "out" / "pohozaev.csv").read_text().splitlines()
        assert len(lines) == 3
        assert float(lines[2].split(",")[3]) == report["pohozaev"]["values"][0]

    def test_coarse_branch_failure_reaps_the_companion_mesh_worker(self, tmp_path, capsys,
                                                                   monkeypatch):
        real = radial_solver.newton_solve

        def coarse_fails(spec, mesh, **kwargs):
            # past the first point, so that the continuation bisects down to
            # its step floor and gives up
            if mesh.n == 128 and kwargs["lam"] > 6.0:
                raise SolverError("coarse mesh refused")
            return real(spec, mesh, **kwargs)

        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(radial_solver, "newton_solve", coarse_fails)
        cfg = base_config(tmp_path / "out", mesh={"nodes": 128}, diagnostics=["rate"],
                          window={"start": 6.0, "end": 10.0, "steps": 5}, fit_window=[6.0, 10.0])
        code, msg = run(["verify", "--config", write_config(tmp_path, "c.json", cfg)], capsys)
        assert code == 3
        assert msg["error"]["kind"] == "solver"
        assert len(forks) == 1  # the companion-mesh worker was running
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_coarse_branch_failure_skips_the_companion_branch(self, tmp_path, capsys,
                                                              monkeypatch):
        # on one CPU nothing forks, and the companion row would be computed
        # here once the block ends; a failed coarse branch must exit 3
        # without it
        real, companion, refuse = radial_solver.newton_solve, [], [True]
        nodes = cli._companion_nodes(128)

        def coarse_fails(spec, mesh, **kwargs):
            if mesh.n == nodes:
                companion.append(kwargs["lam"])
            if refuse[0] and mesh.n == 128 and kwargs["lam"] > 6.0:
                raise SolverError("coarse mesh refused")
            return real(spec, mesh, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(radial_solver, "newton_solve", coarse_fails)
        cfg = base_config(tmp_path / "out", mesh={"nodes": 128}, diagnostics=["rate"],
                          window={"start": 6.0, "end": 10.0, "steps": 5}, fit_window=[6.0, 10.0])
        path = write_config(tmp_path, "c.json", cfg)
        code, msg = run(["verify", "--config", path], capsys)
        assert code == 3
        assert msg["error"]["kind"] == "solver"
        assert msg["error"]["detail"]["reason"] == "coarse mesh refused"
        assert companion == []
        # the watch does see the companion's solves once the coarse branch
        # holds (on a window long enough for the rate fit)
        refuse[0] = False
        cfg["window"] = {"start": 6.0, "end": 14.0, "steps": 9}
        run(["verify", "--config", write_config(tmp_path, "c.json", cfg)], capsys)
        assert {6.0, 7.0, 8.0, 9.0} <= set(companion)

    @pytest.mark.parametrize("diagnostics, message", [
        (["rate"], "only 2 usable points in the window [8.0, 14.0]; a fit needs at least 5"),
        (["uniqueness"],
         "only 2 branch points in [8.0, 14.0]; the derivative table needs at least 4"),
    ], ids=["fit", "uniqueness"])
    def test_short_fit_window_fails_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                     diagnostics, message):
        # 4 steps on 6..9 put 2 targets in the fit window: the same exit-2
        # record the fit or the uniqueness table would give after the
        # solves, with no Newton solve and no companion worker
        forks, solves = _count_forks(monkeypatch), []

        def counted(*args, **kwargs):
            solves.append(kwargs["lam"])
            raise AssertionError("solved a point")

        monkeypatch.setattr(radial_solver, "newton_solve", counted)
        cfg = base_config(tmp_path / "out", mesh={"nodes": 128}, diagnostics=diagnostics,
                          window={"start": 6.0, "end": 9.0, "steps": 4})
        code, msg = run(["verify", "--config", write_config(tmp_path, "w.json", cfg)], capsys)
        assert code == 2
        assert msg == {"error": {"code": 2, "fields": [], "kind": "ParameterDomainError",
                                 "message": message}}
        assert solves == [] and forks == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("nodes, code", [(128, 4), (256, 0)])
    def test_mesh_gate_reads_the_half_node_companion(self, tmp_path, capsys, nodes, code):
        # largest relative rho gap on 6..15: 6.8e-6 between 128 nodes and
        # their 64-node companion (4.4e-8 to 256 nodes), 4.4e-8 between 256
        # and 128 nodes
        cfg = base_config(tmp_path / "out", mesh={"nodes": nodes}, diagnostics=["rate"])
        got, msg = run(["verify", "--config", write_config(tmp_path, "m.json", cfg)], capsys)
        assert got == code
        if code:
            [failure] = msg["error"]["failures"]
            assert failure["check"] == "mesh-convergence"
            match = re.fullmatch(r"rho differs by (\S+) from the 64-node companion "
                                 r"\(threshold 1\.0e-06\); refine mesh\.nodes", failure["detail"])
            assert match and float(match.group(1)) > 1e-6

    def test_companion_failure_named(self, tmp_path, capsys, monkeypatch):
        real = radial_solver.newton_solve

        def companion_fails(spec, mesh, **kwargs):
            if mesh.n == 64 and kwargs["lam"] > 6.0:
                raise SolverError("companion mesh refused")
            return real(spec, mesh, **kwargs)

        monkeypatch.setattr(radial_solver, "newton_solve", companion_fails)
        cfg = base_config(tmp_path / "out", mesh={"nodes": 128}, diagnostics=["rate"],
                          window={"start": 6.0, "end": 14.0, "steps": 9})
        code, msg = run(["verify", "--config", write_config(tmp_path, "c.json", cfg)], capsys)
        assert code == 4
        assert {"check": "mesh-convergence",
                "detail": "companion mesh (64 nodes) did not converge"} in msg["error"]["failures"]


@pytest.mark.parametrize("nodes, companion", [(64, 128), (127, 254), (128, 64), (512, 256),
                                              (513, 256)])
def test_companion_node_rule(nodes, companion):
    # half the nodes, unless that falls below solver_mesh's 64
    assert cli._companion_nodes(nodes) == companion


def _count_forks(monkeypatch):
    """Give the package two CPUs and record each fork it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real, forks = os.fork, []

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("command, workers", [("verify", 1), ("pohozaev", 2), ("verify", 0),
                                              ("spectrum", 2), ("branch", 1)])
def test_worker_and_serial_paths_write_the_same_bytes(command, workers, tmp_path, capsys,
                                                      monkeypatch):
    # on 2 CPUs, every command but verify forks a worker for the
    # continuation's cold points, pohozaev one for the fold pair's lower
    # root and spectrum one for the scan's points; branch writes each
    # point's mesh nodes, so meshes that came back from a worker must be
    # the serial ones bit for bit.  verify forks its companion continuation
    # only, since the coarse branch and the fold pair run inside that job
    # and jobs nest one level deep; verify without diagnostics forks nothing
    # (its job has no item).  A worker that dies before it hands its result
    # back, and a process that cannot fork, leave the work to the parent,
    # which must write the same bytes
    diagnostics = ["pohozaev"] if workers else []
    cfg = base_config(tmp_path / "out", mesh={"nodes": 128}, diagnostics=diagnostics,
                      window={"start": 2.0, "end": 8.0, "steps": 25})
    if command == "spectrum":
        cfg["k_max"] = 2
    path = write_config(tmp_path, "fold.json", cfg)

    def outputs():
        code = main([command, "--config", path])
        files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        return code, capsys.readouterr().out, files

    forks = _count_forks(monkeypatch)
    forked = outputs()
    assert len(forks) == workers

    parent = os.getpid()

    def die_in_worker(real):
        def solve(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(7)
            return real(*args, **kwargs)

        return solve

    with monkeypatch.context() as m:
        m.setattr(radial_solver, "newton_solve", die_in_worker(radial_solver.newton_solve))
        m.setattr(linearization, "mode_spectrum", die_in_worker(linearization.mode_spectrum))
        died = outputs()
    assert len(forks) == 2 * workers
    monkeypatch.delattr(os, "fork")
    serial = outputs()
    assert forked[0] in (0, 4)
    assert died == forked
    assert serial == forked


class TestSpectrumCommand:
    def test_rows_and_determinism(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path / "out",
            window={"start": 8.0, "end": 10.0, "steps": 3},
            k_max=2,
        )
        path = write_config(tmp_path, "s.json", cfg)
        code, msg = run(["spectrum", "--config", path], capsys)
        assert code == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert lines[1] == "lambda,k,eig_min,eig_min_next,kernel_flag"
        assert len(lines) == 2 + 3 * 3  # points x modes
        assert all(row.split(",")[4] in ("0", "1") for row in lines[2:])
        first = (tmp_path / "out" / "spectrum.csv").read_bytes()
        assert main(["spectrum", "--config", path]) == 0
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first


class TestPohozaevCommand:
    def test_eigenfield_rows(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path / "out",
            window={"start": 8.0, "end": 10.0, "steps": 3},
        )
        path = write_config(tmp_path, "p.json", cfg)
        code, msg = run(["pohozaev", "--config", path], capsys)
        assert code == 0
        lines = (tmp_path / "out" / "pohozaev.csv").read_text().splitlines()
        assert lines[1] == "lambda,kind,radius,residual"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        assert all(r[1] == "eigenfield" for r in rows)
        assert all(abs(float(r[3])) <= 1e-6 for r in rows)

    def test_fold_without_sign_change_exits_3(self, tmp_path, capsys, monkeypatch):
        # a fold flag forced onto a monotone branch leaves a bracket with
        # no sign change: a structured solver failure, not a traceback
        real = radial_solver.continue_branch

        def forced_flag(*args):
            return dataclasses.replace(real(*args), fold_flags=(3,))

        monkeypatch.setattr(cli, "continue_branch", forced_flag)
        cfg = base_config(
            tmp_path / "out",
            window={"start": 9.0, "end": 12.0, "steps": 7},
            mesh={"nodes": 128},
        )
        path = write_config(tmp_path, "forced.json", cfg)
        code, msg = run(["pohozaev", "--config", path], capsys)
        assert code == 3
        assert msg["error"]["kind"] == "SolverError"
        assert "no sign change" in msg["error"]["message"]


@pytest.mark.parametrize(
    "overrides, fields",
    [
        (
            {"thresholds": {"mesh_rtol": math.nan, "pohozaev_tol": math.nan, "r2_floor": math.nan}},
            ["thresholds.mesh_rtol", "thresholds.pohozaev_tol", "thresholds.r2_floor"],
        ),
        ({"window": {"end": math.inf}}, ["window.end"]),
        ({"hstar": {"kind": "gaussian", "coef": math.nan}}, ["hstar.coef"]),
        ({"hstar": {"kind": "poly", "coeffs": [1.0, -math.inf]}}, ["hstar.coeffs"]),
        ({"alpha": math.inf}, ["alpha"]),
        ({"mesh": {"nodes": math.inf}, "window": {"start": -math.inf}},
         ["mesh.nodes", "window.start"]),
        ({"fit_window": [8.0, math.inf], "r0": math.nan, "outer_radius": -math.inf},
         ["fit_window", "outer_radius", "r0"]),
    ],
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, overrides, fields):
    # json writes and reads NaN and Infinity; each must name its field
    # instead of turning a gate off or failing later in the numerics
    cfg = base_config(tmp_path / "out", mesh={"nodes": 128})
    cfg.update(overrides)
    path = write_config(tmp_path, "nonfinite.json", cfg)
    code, msg = run(["verify", "--config", path], capsys)
    assert code == 2
    assert msg["error"]["kind"] == "ConfigError"
    assert msg["error"]["fields"] == fields
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("grading", "fixed"), ("strength", 6.0),
                                          ("offset", 2.0)])
def test_mesh_takes_only_the_node_count(tmp_path, capsys, field, value):
    # the solver mesh has one grading rule, so the mesh section has no
    # grading knobs: each is an unknown field
    cfg = base_config(tmp_path / "out", mesh={"nodes": 128, field: value})
    path = write_config(tmp_path, "mesh.json", cfg)
    code, msg = run(["verify", "--config", path], capsys)
    assert code == 2
    assert msg["error"]["kind"] == "ConfigError"
    assert msg["error"]["fields"] == [f"mesh.{field}"]
    assert not (tmp_path / "out").exists()


def test_newton_takes_only_lambda_and_a_start():
    # every solve fixes lambda, so Newton has no fixed-rho mode and no
    # tolerance knob: NEWTON_TOL is a constant
    params = inspect.signature(radial_solver.newton_solve).parameters.values()
    keyword_only = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
    assert keyword_only == ["lam", "initial"]


@pytest.mark.parametrize(
    "overrides, fields",
    [
        ({"alpha": math.nan, "thresholds": {"mesh_rtol": math.nan}}, ["alpha", "thresholds.mesh_rtol"]),
        ({"alpha": 2.0, "hstar": {"kind": "nope"}, "window": {"steps": 0}},
         ["alpha", "hstar.kind", "window.steps"]),
        ({"hstar": {"kind": "gaussian", "coef": math.nan}, "mesh": {"nodes": 8}, "k_max": -1},
         ["hstar.coef", "k_max", "mesh.nodes"]),
        # the rules of alpha and of the weight, from validate_alpha and WeightSpec
        ({"alpha": 1.0000000000001, "k_max": -1}, ["alpha", "k_max"]),
        ({"hstar": {"kind": "constant", "coef": -1}, "k_max": -1}, ["hstar.coef", "k_max"]),
        ({"hstar": {"kind": "poly", "coeffs": [1, -3]}, "mesh": {"nodes": 8}},
         ["hstar.coeffs", "mesh.nodes"]),
    ],
)
def test_alpha_and_hstar_faults_listed_with_the_rest(overrides, fields):
    # one ConfigError names every bad field, alpha and hstar included
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(base_config("x", **overrides))
    assert err.value.fields == fields
    assert str(err.value) == "invalid config fields: " + ", ".join(fields)


def _package_trees():
    """(file name, parsed module) for every module of the package."""
    pkg = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "mfelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_only_meshing_imports_lapack():
    # meshing loads scipy's compiled modules straight from their files: LAPACK
    # for RadialMesh.band_solver (the band LU and its Sherman-Morrison step)
    # and, for linearization, ARPACK; no module imports a scipy package at
    # module level
    loaders, lapack, top_level = set(), set(), set()
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "ExtensionFileLoader":
                loaders.add(name)
            if isinstance(node, (ast.Name, ast.Attribute)):
                if getattr(node, "id", getattr(node, "attr", None)) in ("dgbtrf", "dgbtrs"):
                    lapack.add(name)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.startswith("scipy.linalg._flapack"):
                    lapack.add(name)
            # an import of LAPACK anywhere, function bodies included
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            if {"scipy.linalg.lapack", "scipy.linalg._flapack"} & set(mods):
                lapack.add(name)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in mods):
                top_level.add(name)
    assert loaders == {"meshing.py"}
    assert lapack == {"meshing.py"}
    assert top_level == set()


def test_scipy_packages_imported_only_where_needed():
    # the three functions that need a scipy package import it in their own
    # body; the mode spectra have one solve path and import none
    imports = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.ImportFrom):
                mods = [child.module or ""]
            elif isinstance(child, ast.Import):
                mods = [a.name for a in child.names]
            else:
                mods = []
            for m in mods:
                if m == "scipy" or m.startswith("scipy."):
                    imports.add((module, ".".join(scope), m))
            visit(child, module, scope)

    for name, tree in _package_trees():
        visit(tree, name, ())
    assert imports == {
        ("diagnostics.py", "two_term_fit", "scipy.optimize"),
    }


def test_only_the_worker_helper_forks():
    # the package's worker processes all come from workers.shared: it alone
    # forks, maps the claim flags, opens the workers' files, pins a CPU and
    # leaves through os._exit, and only the workers module loads ctypes and
    # pickle and names OpenBLAS's thread setters
    calls = {("os", "fork"), ("os", "_exit"), ("mmap", "mmap"), ("os", "sched_setaffinity"),
             ("tempfile", "TemporaryFile")}
    forks, pickles = set(), set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                if (child.value.id, child.attr) in calls:
                    forks.add((module, ".".join(scope), f"{child.value.id}.{child.attr}"))
            if isinstance(child, ast.Constant) and "set_num_threads" in str(child.value):
                forks.add((module, ".".join(scope), "set_num_threads"))
            if isinstance(child, ast.ImportFrom):
                if {(child.module, a.name) for a in child.names} & calls:
                    forks.add((module, ".".join(scope), f"from {child.module} import"))
                mods = [child.module or ""]
            elif isinstance(child, ast.Import):
                mods = [a.name for a in child.names]
            else:
                mods = []
            if any(m.split(".")[0] in ("pickle", "_pickle") for m in mods):
                pickles.add(module)
            if any(m.split(".")[0] == "ctypes" for m in mods):
                forks.add((module, ".".join(scope), "import ctypes"))
            visit(child, module, scope)

    for name, tree in _package_trees():
        visit(tree, name, ())
    assert forks == {
        ("workers.py", "shared", "os.fork"),
        ("workers.py", "shared", "os._exit"),
        ("workers.py", "shared", "mmap.mmap"),
        ("workers.py", "shared", "os.sched_setaffinity"),
        ("workers.py", "shared", "tempfile.TemporaryFile"),
        ("workers.py", "_openblas_threads", "import ctypes"),
        ("workers.py", "", "set_num_threads"),
    }
    assert pickles == {"workers.py"}


def test_dense_operators_built_only_where_needed():
    # banded operators stay bands: a dense n x n matrix is built only by
    # RadialMesh.lap_rows (a timing boundary of the benchmark tracer), which
    # no package code calls; Newton's residual multiplies by row slabs and
    # the mode operators have no dense form
    callers = {(module, scope) for name in ("dense", "lap_rows")
               for module, scope, _ in _calls_named(name)}
    assert callers == {("meshing.py", "RadialMesh.lap_rows")}


def test_openblas_timeout_named_only_by_the_package_imports():
    # one OpenBLAS start-up scope: the package's __init__ sets the thread
    # timeout around its own imports, which load numpy and scipy's LAPACK
    named = {module for module, tree in _package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "OPENBLAS_THREAD_TIMEOUT"}
    assert named == {"__init__.py"}


def _calls_named(name):
    """(module, scope, call) for every call of a function or method ``name`` in the package."""
    calls = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    calls.append((module, ".".join(scope), child))
            visit(child, module, scope)

    for module, tree in _package_trees():
        visit(tree, module, ())
    return calls


def _scopes_naming(attr):
    """(module, scope) of every place in the package that names ``.attr``."""
    callers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                callers.add((module, ".".join(scope)))
            visit(child, module, scope)

    for name, tree in _package_trees():
        visit(tree, name, ())
    return callers


def test_graded_meshes_built_only_by_the_mesh_rules():
    # the solver mesh has one rule, solver_mesh
    assert _scopes_naming("graded") == {("radial_solver.py", "solver_mesh")}


def test_second_branch_node_count_only_from_the_companion_rule():
    # verify's mesh gate has one companion rule: only _companion_branch
    # runs a branch on other than the config's node count
    explicit = {(module, scope, ast.unparse(call))
                for module, scope, call in _calls_named("_run_branch")
                if len(call.args) > 1 or call.keywords}
    assert explicit == {
        ("cli.py", "_companion_branch",
         "_run_branch(config, nodes=_companion_nodes(config.mesh['nodes']))"),
    }


def _loaded_after(probe):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_cli_import_leaves_out_optional_scipy_modules():
    # the CLI loads scipy's compiled LAPACK and ARPACK modules and no scipy
    # package; the rest load inside the few functions that use them
    probe = "import json, sys, mfelab.cli; print(json.dumps(sorted(sys.modules)))"
    modules = _loaded_after(probe)
    loaded = {m for m in modules if m == "scipy" or m.startswith("scipy.")}
    assert loaded == {
        "scipy.linalg._flapack",
        "scipy.sparse.linalg._eigen.arpack._arpacklib",
    }
    # the spectrum scan forks its workers itself: no pool machinery at start-up
    pools = [m for m in modules if m.split(".")[0] in ("multiprocessing", "concurrent")]
    assert pools == []


def test_scipy_reuses_the_compiled_modules_mfelab_loaded():
    probe = (
        "import json, mfelab, mfelab.meshing as m, mfelab.linearization as lin\n"
        "import scipy.linalg.lapack as lapack\n"
        "from scipy.sparse.linalg._eigen.arpack import arpack\n"
        "print(json.dumps([lapack.dgbtrf is m.dgbtrf, lapack.dgbtrs is m.dgbtrs,"
        " arpack._arpacklib is lin._arpack]))"
    )
    assert _loaded_after(probe) == [True, True, True]
