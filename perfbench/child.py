"""One mfelab command in a fresh process, timed from the inside.

    python3 child.py SPAWNED_AT COMMAND CONFIG RESULT [--setup-only] [--trace SPANS] [--stamp]

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading taken just before it
started this process.  ``setup_s`` runs from then until ``RunConfig.load``
returns (interpreter start, ``import mfelab`` with numpy and scipy, config
parse); ``run_s`` is the wall time of ``mfelab.cli.main`` for COMMAND on
CONFIG.  With ``--trace`` the layer wrappers are installed around that call
and the spans are written to SPANS after it.  Timings, the exit code and
the peak RSS go to RESULT as JSON; stdout belongs to the CLI.
"""

import json
import resource
import sys
import time
import traceback


def env_stamp() -> dict:
    """Library versions and the BLAS thread count this process saw."""
    import ctypes
    import os
    import platform

    import numpy
    import scipy

    def blas_info(show_config):
        try:
            blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError):
            return None
        return {"name": blas.get("name"), "version": blas.get("version")}

    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    prefixes = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO_", "MFELAB_")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_info(numpy.show_config),
        "scipy_blas": blas_info(scipy.show_config),
        "blas_threads": threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS") or k.startswith(prefixes)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv) -> int:
    spawned_at, command, config_path, result_path = argv[:4]
    flags = argv[4:]
    from mfelab import cli
    from mfelab.serialize import RunConfig

    RunConfig.load(config_path)
    result = {"setup_s": time.monotonic() - float(spawned_at), "mfelab_file": cli.__file__}
    if "--setup-only" not in flags:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main([command, "--config", config_path])
        except Exception:  # a traceback is a failed invocation, not a broken benchmark
            traceback.print_exc()
            rc = -1
        finally:
            result["run_s"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        sys.stdout.flush()
        result["rc"] = rc
        if tracer is not None:
            with open(flags[flags.index("--trace") + 1], "w", encoding="utf-8") as fh:
                json.dump([s.to_list() for s in tracer.spans], fh)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "--stamp" in flags:
        result["env"] = env_stamp()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
