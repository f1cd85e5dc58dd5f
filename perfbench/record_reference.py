"""Record reference.json: each workload's artifacts at the recorded seed.

    python3 perfbench/record_reference.py

Runs the set-up and one pass of every workload at ``RECORDED_SEED`` and
stores, per command, the sha256 of each artifact and its key values
(see checks.py).  Re-record only when a change is meant to alter outputs,
and say so with the change.
"""

import json
import shutil
import sys

import run
from workloads import RECORDED_SEED, WORKLOADS


def main() -> int:
    cli, _ = run.import_program()
    stored = {"seed": RECORDED_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        work_dir = run.WORK / f"record-{workload.name}"
        result = run.run(workload, RECORDED_SEED, 0.0, False, cli, 0.0,
                         work_dir=work_dir)
        if not result["correct"]:
            print(f"record_reference: {workload.name} failed", file=sys.stderr)
            return 1
        steps = {op.label: op.snapshot for op in result["ops"]}
        stored["workloads"][workload.name] = {"config": workload.config,
                                              "steps": steps}
        shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
