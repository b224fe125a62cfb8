"""mfelab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``.  Load is a closed loop with one client: each invocation is one
``mfelab`` subcommand in a fresh Python process, started only after the
previous one has exited.  Invocations repeat for S seconds: another one
starts only while a typical cycle still fits, and there are at least two,
so that reruns can be compared byte for byte.  BLAS keeps its default
thread count.

--trace 0 reports the end-to-end metrics, each the median over the run:
``run_s`` (config loaded to exit code returned), ``setup_s`` (process
spawn to config loaded; each invocation is followed by one start that only
sets up, for more samples) and ``peak_rss_mb`` (peak resident memory of
the command's process).  --trace 1 alternates untraced and traced
invocations and reports the per-layer metrics of ``tracer.PER_LAYER``,
each the median over the traced invocations; ``trace.overhead_s`` is the
traced minus the untraced median ``run_s``.

Every invocation must exit 0, pass the checks in ``workloads.check`` and
write the same bytes as the first invocation of the run; each one that
does not is counted in ``failed``.  The last line of stdout is the result
as JSON; the lines above it repeat the metrics with units, ``fail_frac``,
the largest deviation from the reference and the environment stamp.
Scratch files and a full result record go to ``.perfbench-work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import PER_LAYER, Span, layer_metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def source_stamp() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the program's sources (a bare checkout has no commit to report)."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mfelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=False)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            pass
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def spawn(workdir: str, command: str, flags=()) -> tuple[dict, str]:
    """Start one child, wait for it, return its timing record and stdout."""
    result_path = os.path.join(workdir, "child.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, CHILD, repr(time.monotonic()), command, "config.json", result_path,
            *flags]
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{command} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if not os.path.exists(result_path):
        raise BenchError(f"child exited {proc.returncode} without a result:\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    mfelab_file = os.path.realpath(record["mfelab_file"])
    if not mfelab_file.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"mfelab was imported from {mfelab_file}, not from {SRC}")
    return record, proc.stdout


def output_digest(workdir: str) -> str:
    out = os.path.join(workdir, workloads.OUT_DIR)
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def judge(name, seed, workdir, record, stdout, reference, first_digest):
    """Problems with one invocation; also returns its output digest and deviation."""
    if record["rc"] != 0:
        return [f"exit code {record['rc']}: {stdout.strip()}"], None, 0.0
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    problems = [] if '"status": "ok"' in last else [f"no ok status: {last}"]
    try:
        digest = output_digest(workdir)
        values = workloads.extract(name, workdir)
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"unreadable outputs: {exc!r}"], None, 0.0
    if first_digest is not None and digest != first_digest:
        problems.append("outputs differ from the first invocation of this config")
    more, deviation = workloads.check(name, seed, values, reference)
    return problems + more, digest, deviation


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "mfelab", "cli.py")):
        raise BenchError(f"no mfelab sources under {SRC}")
    command = workloads.WORKLOADS[name][0]
    reference = None
    if os.path.exists(workloads.reference_path(name)):
        with open(workloads.reference_path(name), encoding="utf-8") as fh:
            reference = json.load(fh)
    elif seed == 0:
        raise BenchError(f"missing reference {workloads.reference_path(name)}")

    workdir = os.path.join(ROOT, ".perfbench-work", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(workloads.make_config(name, seed), fh, indent=2, sort_keys=True)

    # warms the file and bytecode caches; not timed
    stamp, _ = spawn(workdir, command, ["--setup-only", "--stamp"])

    samples = {"run_s": [], "setup_s": [], "peak_rss_mb": [], "traced_run_s": []}
    layers: list[dict] = []
    attempted = failed = 0
    first_digest = None
    deviation = 0.0
    problems_seen: list[str] = []
    cycle_s: list[float] = []
    t_start = time.monotonic()
    # start another cycle only if a typical one still fits in the window
    while attempted < 2 or time.monotonic() - t_start + statistics.median(cycle_s) <= seconds:
        t_cycle = time.monotonic()
        traced = trace and attempted % 2 == 1
        flags = ["--trace", "spans.json"] if traced else []
        shutil.rmtree(os.path.join(workdir, workloads.OUT_DIR), ignore_errors=True)
        record, stdout = spawn(workdir, command, flags)
        attempted += 1
        problems, digest, dev = judge(name, seed, workdir, record, stdout, reference, first_digest)
        first_digest = first_digest or digest
        deviation = max(deviation, dev)
        if problems:
            failed += 1
            problems_seen.extend(problems)
        samples["setup_s"].append(record["setup_s"])
        if traced:
            samples["traced_run_s"].append(record["run_s"])
            with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as fh:
                layers.append(layer_metrics([Span.from_list(s) for s in json.load(fh)]))
        else:
            samples["run_s"].append(record["run_s"])
            samples["peak_rss_mb"].append(record["peak_rss_kb"] * 1024 / 1e6)
        if not trace:
            # one more start that only sets up, so setup_s has twice the samples
            record, _ = spawn(workdir, command, ["--setup-only"])
            samples["setup_s"].append(record["setup_s"])
        cycle_s.append(time.monotonic() - t_cycle)

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summarize(samples, layers if trace else None),
        "deviation": deviation,
        "problems": problems_seen,
        "samples": samples,
        "env": dict(stamp["env"], **source_stamp(), workload=name, seed=seed,
                    coef=workloads.coef_for(seed), trace=int(trace)),
    }


def summarize(samples: dict, layers: list[dict] | None) -> dict:
    """The reported metrics: end to end, or per layer when ``layers`` is given."""
    med = statistics.median
    if layers is None:
        return {key: {"value": med(samples[key]), "unit": unit} for key, unit in END_TO_END}
    metrics = {}
    for key, unit, _ in PER_LAYER:
        if key == "trace.overhead_s":
            value = med(samples["traced_run_s"]) - med(samples["run_s"])
        else:
            value = med(m[key] for m in layers)
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def report_lines(result: dict) -> list[str]:
    """Human-readable lines printed above the JSON result."""
    lines = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    lines.append(f"fail_frac {result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']} invocations)")
    lines.append(f"max_reference_deviation {result['deviation']:.3e} (relative; not a metric)")
    lines.extend(f"problem: {p}" for p in result["problems"])
    lines.append("env " + json.dumps(result["env"], sort_keys=True))
    return lines


def final_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(ROOT, ".perfbench-work",
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for line in report_lines(result):
        print(line)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
