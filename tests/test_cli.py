"""Config validation, deterministic output files, and the four subcommands."""

import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import stat
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
    # an out that is a regular file or a dangling symlink, or lies below
    # one, cannot be written: one exit-2 record that names out, before
    # anything is solved or forked, no traceback and nothing created
    (tmp_path / "afile").write_text("")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    forks, solves = _count_forks(monkeypatch), []
    monkeypatch.setattr(radial_solver, "newton_solve", lambda *a, **k: solves.append(a))
    for out in (tmp_path / "afile" / "sub", tmp_path / "afile",
                tmp_path / "dangling" / "sub", tmp_path / "dangling"):
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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "c.json", "dangling"]


@pytest.mark.parametrize("command, diagnostics, name", [
    ("branch", ["rate"], "branch.csv"),
    ("branch", ["rate"], "u_0002.csv"),
    ("spectrum", ["rate"], "spectrum.csv"),
    ("pohozaev", ["rate"], "pohozaev.csv"),
    ("verify", ["rate"], "report.json"),
    ("verify", ["matching"], "fits.csv"),
])
def test_output_name_taken_by_a_directory_is_a_config_error(tmp_path, capfd, monkeypatch,
                                                             command, diagnostics, name):
    # a file the command would write is a directory in out: one exit-2
    # record that names out, before anything is solved or forked, and
    # nothing created
    (tmp_path / "out" / name).mkdir(parents=True)
    forks, solves = _count_forks(monkeypatch), []
    monkeypatch.setattr(radial_solver, "newton_solve", lambda *a, **k: solves.append(a))
    cfg = base_config(
        tmp_path / "out",
        mesh={"nodes": 64},
        window={"start": 0.5, "end": 1.5, "steps": 3},
        diagnostics=diagnostics,
        k_max=1,
    )
    code = main([command, "--config", write_config(tmp_path, "c.json", cfg)])
    stdout, err = capfd.readouterr()
    assert code == 2
    assert err == ""
    (line,) = stdout.splitlines()
    record = json.loads(line)["error"]
    assert record["fields"] == ["out"]
    assert name in record["message"]
    assert solves == [] and forks == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out"]
    assert [p.name for p in (tmp_path / "out").iterdir()] == [name]


def test_directories_no_write_needs_pass_the_check(tmp_path):
    # directories beside the written names, a snapshot past the window's
    # steps and a name in another format, do not stop a run
    for name in ("u_0003.csv", "u_2.csv", "fits.csv", "sub"):
        (tmp_path / name).mkdir()
    cfg = RunConfig.from_dict(base_config(tmp_path, window={"start": 0.5, "end": 1.5, "steps": 3},
                                          diagnostics=["rate"]))
    for command in ("branch", "spectrum", "pohozaev", "verify"):
        snapshots = 3 if command == "branch" else 0
        cli._check_out(str(tmp_path), cli._out_names(command, cfg), snapshots)
    # a symlink to a directory is replaced by the write, not written through
    (tmp_path / "report.json").symlink_to(tmp_path / "sub")
    cli._check_out(str(tmp_path), cli._out_names("verify", cfg))


def test_out_that_may_be_made_passes_the_check(tmp_path):
    # a missing out below a writable directory, and an existing directory,
    # are usable; the check creates nothing
    cli._check_out(str(tmp_path / "a" / "b"))
    cli._check_out(str(tmp_path))
    assert list(tmp_path.iterdir()) == []


class _ArrayMemoryError(MemoryError):
    """Stands for numpy's private subclass, which a failed allocation raises."""


def _refuse_allocation(*args, **kwargs):
    raise _ArrayMemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")


def _assert_memory_error_record(code, capfd):
    stdout, err = capfd.readouterr()
    assert code == 3
    assert err == ""
    (line,) = stdout.splitlines()
    assert json.loads(line) == {"error": {
        "code": 3, "kind": "MemoryError",
        "message": "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"}}


@pytest.mark.parametrize("command", ["branch", "spectrum", "pohozaev", "verify"])
def test_arrays_that_cannot_be_allocated_exit_3(tmp_path, capfd, monkeypatch, command):
    # a huge window.steps fails where the lambda grid is allocated; the grid
    # raises as numpy would, so nothing is allocated: one exit-3 record of
    # kind MemoryError, no traceback
    monkeypatch.setattr(cli, "branch_targets", _refuse_allocation)
    monkeypatch.setattr(radial_solver, "branch_targets", _refuse_allocation)
    cfg = base_config(tmp_path / "out", window={"start": 6.0, "end": 15.0, "steps": 19})
    code = main([command, "--config", write_config(tmp_path, "c.json", cfg)])
    _assert_memory_error_record(code, capfd)


def test_a_scan_that_cannot_allocate_exits_3(tmp_path, capfd, monkeypatch):
    # a huge k_max fails in each point's chain of modes, in the workers and
    # again in the command's process
    monkeypatch.setattr(linearization, "_mode_chain", _refuse_allocation)
    cfg = base_config(tmp_path / "out", mesh={"nodes": 64},
                      window={"start": 0.5, "end": 1.5, "steps": 3}, k_max=1)
    code = main(["spectrum", "--config", write_config(tmp_path, "c.json", cfg)])
    _assert_memory_error_record(code, capfd)


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

    def test_atomic_write_gives_a_plain_writes_mode(self, tmp_path):
        # 0o666 less the umask, as open(path, "w") gives, not mkstemp's 0o600
        for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
            path, plain = tmp_path / f"f{umask:o}.txt", tmp_path / f"plain{umask:o}.txt"
            old = os.umask(umask)
            try:
                atomic_write(str(path), "x\n")
                plain.write_text("x\n")
            finally:
                os.umask(old)
            assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == mode


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

    @pytest.mark.parametrize("flag, field", [("--out", "out"), ("--window", "window")])
    def test_empty_override_flag_is_refused(self, tmp_path, capsys, flag, field):
        # an empty flag overrides like any other: exit 2 naming its field,
        # before anything is solved or written
        cfg = base_config(tmp_path / "o", mesh={"nodes": 64},
                          window={"start": 0.5, "end": 1.5, "steps": 3})
        code, msg = run(["branch", "--config", write_config(tmp_path, "c.json", cfg), flag, ""],
                        capsys)
        assert code == 2
        assert msg["error"]["fields"] == [field]
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 2.4])
    def test_exact_family_passes_every_gate(self, alpha, tmp_path, capsys):
        # hstar constant: rho - 8 pi beta = -8 beta^2 e^(-lambda), so the
        # rate slope is gated on -1, not on -1/beta; the other fields are
        # the benchmark's verify config
        cfg = base_config(
            tmp_path / "out",
            alpha=alpha,
            hstar={"kind": "constant"},
            window={"start": 6.0, "end": 15.0, "steps": 19},
            mesh={"nodes": 512},
            fit_window=[8.0, 14.0],
            diagnostics=list(diagnostics.DIAGNOSTIC_NAMES),
        )
        code, msg = run(["verify", "--config", write_config(tmp_path, "exact.json", cfg)], capsys)
        assert (code, msg.get("status")) == (0, "ok"), msg

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
        # the one worker of the coarse branch's and the companion's cold
        # points, reaped when the coarse branch stops short
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_coarse_branch_failure_skips_the_companion_branch(self, tmp_path, capsys,
                                                              monkeypatch):
        # on one CPU nothing forks; a failed coarse branch must exit 3
        # before the companion continuation solves a point
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


@pytest.mark.parametrize("command, diagnostics, workers", [
    ("verify", ["pohozaev"], 2), ("pohozaev", ["pohozaev"], 2), ("verify", [], 1),
    ("spectrum", ["pohozaev"], 2), ("branch", ["pohozaev"], 1),
], ids=["verify-2", "pohozaev-2", "verify-no-diagnostics-1", "spectrum-2", "branch-1"])
def test_worker_and_serial_paths_write_the_same_bytes(command, diagnostics, workers, tmp_path,
                                                      capsys, monkeypatch):
    # on 2 CPUs, every command forks a worker for its continuation's cold
    # points, pohozaev one for the fold pair's lower root and spectrum one
    # for the scan's points; branch writes each point's mesh nodes, so
    # meshes that came back from a worker must be the serial ones bit for
    # bit.  verify forks once for its branch's and its mesh gate's
    # companion's cold points, which share one job, and once for the fold
    # pair; without diagnostics it has no companion and no fold pair, and
    # forks for its branch only.  A worker that dies before it hands its
    # result back, and a process that cannot fork, leave the work to the
    # parent, which must write the same bytes
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
    # no package module imports a scipy package, at module level or in a
    # function body: the CLI paths load only the two compiled modules
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
    assert imports == set()


def test_only_the_worker_helper_forks():
    # the package's worker processes all come from workers.shared: it alone
    # forks, maps the claim flags, opens the workers' files, pins a CPU and
    # leaves through os._exit, and only the workers module loads pickle; no
    # module loads ctypes or names OpenBLAS's thread setters
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
    }
    assert pickles == {"workers.py"}


def test_cli_opens_no_job_and_raises_nothing_of_its_own():
    # every command runs its work as plain calls, whose solvers fork: cli.py
    # names nothing workers.py defines, imports no workers module, and
    # defines no exception to leave a job's block with
    trees = dict(_package_trees())
    body = trees["workers.py"].body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert {"shared", "_open"} <= defined
    used = set()
    for node in ast.walk(trees["cli.py"]):
        if isinstance(node, ast.ImportFrom):
            used.update(f"{node.module}.{a.name}" for a in node.names
                        if "workers" in (node.module or "") or a.name == "workers")
        elif isinstance(node, ast.Import):
            used.update(a.name for a in node.names if "workers" in a.name)
        elif isinstance(node, ast.Name) and node.id in defined:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in defined:
            used.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            bases = {ast.unparse(b) for b in node.bases}
            if any(b.endswith(("Exception", "Error")) for b in bases):
                used.add(f"class {node.name}")
    assert used == set()


def test_dense_operators_built_only_where_needed():
    # banded operators stay bands: a dense n x n matrix is built only by
    # RadialMesh.lap_rows (a timing boundary of the benchmark tracer), which
    # no package code calls; Newton's residual multiplies by row slabs and
    # the mode operators have no dense form
    callers = {(module, scope) for name in ("dense", "lap_rows")
               for module, scope, _ in _calls_named(name)}
    assert callers == {("meshing.py", "RadialMesh.lap_rows")}


def test_openblas_threads_named_only_by_the_package_imports():
    # one OpenBLAS start-up scope: the package's __init__ sets the thread
    # count around its own imports, which load numpy and scipy's LAPACK,
    # and no module names the spin timeout
    named = {(module, node.value) for module, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and str(node.value).startswith("OPENBLAS_")}
    assert named == {("__init__.py", "OPENBLAS_NUM_THREADS")}


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
    # verify's mesh gate has one companion rule: only cmd_verify asks for a
    # companion continuation, on other than the config's node count
    explicit = {(module, scope, ast.unparse(call))
                for module, scope, call in _calls_named("_run_branch")
                if len(call.args) > 1 or call.keywords}
    assert explicit == {
        ("cli.py", "cmd_verify",
         "_run_branch(config, _companion_nodes(config.mesh['nodes']) "
         "if config.diagnostics else None)"),
    }


def _loaded_after(probe, *args):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    # the benchmark's tracer wraps each (layer, path) of perfbench/tracer.py's
    # TRACED; a name the package no longer defines would break every traced run
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclasses
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, name in tracer.TRACED:
        home = importlib.import_module(f"mfelab.{layer}")
        if "." in name:
            cls_name, attr = name.split(".")
            assert attr in vars(getattr(home, cls_name)), (layer, name)
        else:
            assert callable(getattr(home, name, None)), (layer, name)


def test_cli_import_leaves_out_optional_scipy_modules():
    # the CLI loads scipy's compiled LAPACK, ARPACK and Brent modules and no
    # scipy package
    probe = "import json, sys, mfelab.cli; print(json.dumps(sorted(sys.modules)))"
    modules = _loaded_after(probe)
    loaded = {m for m in modules if m == "scipy" or m.startswith("scipy.")}
    assert loaded == {
        "scipy.linalg._flapack",
        "scipy.sparse.linalg._eigen.arpack._arpacklib",
        "scipy.optimize._zeros",
    }
    # the spectrum scan forks its workers itself: no pool machinery at start-up
    pools = [m for m in modules if m.split(".")[0] in ("multiprocessing", "concurrent")]
    assert pools == []


def test_scipy_reuses_the_compiled_modules_mfelab_loaded():
    probe = (
        "import json, mfelab, mfelab.meshing as m, mfelab.linearization as lin\n"
        "import mfelab.radial_solver as rs\n"
        "import scipy.linalg.lapack as lapack\n"
        "from scipy.sparse.linalg._eigen.arpack import arpack\n"
        "import scipy.optimize\n"
        "print(json.dumps([lapack.dgbtrf is m.dgbtrf, lapack.dgbtrs is m.dgbtrs,"
        " arpack._arpacklib is lin._arpack,"
        " scipy.optimize.brentq.__globals__['_zeros'] is rs._zeros]))"
    )
    assert _loaded_after(probe) == [True, True, True, True]


def _hashed_configs():
    """The seed-0 configs of the three benchmark workloads and a poly weight."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [workloads.make_config(name, 0) for name in sorted(workloads.WORKLOADS)]
    return configs + [base_config("out", hstar={"kind": "poly", "coeffs": [1.0, -0.25, 0.1]})]


def test_config_hash_is_hashlib_sha256_of_the_canonical_json():
    for raw in _hashed_configs():
        config = RunConfig.from_dict(raw)
        expected = hashlib.sha256(config.canonical_json().encode("utf-8")).hexdigest()
        assert config.config_hash() == expected


def test_config_hash_falls_back_to_hashlib():
    # without CPython's own sha256 modules the hash comes from hashlib, equal
    probe = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from mfelab.serialize import RunConfig\n"
        "hashes = [RunConfig.from_dict(raw).config_hash() for raw in json.loads(sys.argv[1])]\n"
        "print(json.dumps(['hashlib' in sys.modules, hashes]))"
    )
    configs = _hashed_configs()
    fallback, hashes = _loaded_after(probe, json.dumps(configs))
    assert fallback
    assert hashes == [RunConfig.from_dict(raw).config_hash() for raw in configs]


_OPENSSL_PROBE = """
import contextlib, io, json, os, sys
import mfelab.cli

def openssl():
    modules = sorted(m for m in ("hashlib", "_hashlib", "ssl") if m in sys.modules)
    libraries = []
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                                if "libcrypto" in line or "libssl" in line})
    return [modules, libraries]

seen = [openssl()]
with contextlib.redirect_stdout(io.StringIO()):
    code = mfelab.cli.main(["branch", "--config", sys.argv[1]])
print(json.dumps([code, seen + [openssl()]]))
"""


def test_no_openssl_after_import_and_a_branch_run(tmp_path):
    # the config hash is the package's only hash: neither the import nor a
    # run loads hashlib, and so OpenSSL's libcrypto is never mapped
    window = {"start": 6.0, "end": 8.0, "steps": 5}
    path = write_config(tmp_path, "c.json",
                        base_config(tmp_path / "out", mesh={"nodes": 128}, window=window))
    code, seen = _loaded_after(_OPENSSL_PROBE, path)
    assert code == 0
    assert seen == [[[], []], [[], []]]
