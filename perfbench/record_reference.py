"""Record the reference outputs that run.py compares against at seed 0.

Usage:
    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's set-up at seed 0 and one unit of operations (the
study's first pass, one operation of the others), checks them, and writes
the columns of the first ``reference_ops`` operations and the study's
guardrail statistics to ``perfbench/reference/<workload>.npz``.  Re-record only when a
change to relfuse is meant to change its answers, and say so with the change.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_STATS = ("band_width_ratio", "band_width_wins", "coverage")


def record(name: str) -> Path:
    workdir = HERE.parent / ".perfbench_work" / f"record-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](0, False, workdir)
        wl.setup()
        outputs = []
        for i in range(wl.unit):
            op = wl.run_op(i)
            for cols in op.outputs:
                checks.check_export(cols)
            wl.after_op(i, op)
            if i < wl.reference_ops:
                outputs.append(op.outputs)
        stats = {k: v for k, (v, _) in wl.finish().items() if k in REFERENCE_STATS}
        path = HERE / "reference" / f"{name}.npz"
        path.parent.mkdir(exist_ok=True)
        checks.save_reference(path, outputs, stats)
        return path
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        print(f"wrote {record(name)}")
