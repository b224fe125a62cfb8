"""Record the seed-0 reference values that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs each workload once at seed 0 from the current sources and writes
``reference/<workload>.json``.  Record only from a commit whose outputs
are known to be right; the benchmark then holds every later commit to
these values.
"""

import json
import os
import sys

import run
import workloads


def main() -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name, (command, _) in workloads.WORKLOADS.items():
        workdir = os.path.join(run.ROOT, ".perfbench-work", f"reference-{name}")
        os.makedirs(workdir, exist_ok=True)
        with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(workloads.make_config(name, 0), fh, indent=2, sort_keys=True)
        record, stdout = run.spawn(workdir, command)
        if record["rc"] != 0:
            print(f"{name}: exit code {record['rc']}: {stdout}", file=sys.stderr)
            return 1
        values = workloads.extract(name, workdir)
        problems, _ = workloads.check(name, 0, values, None)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        with open(workloads.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: recorded {workloads.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
