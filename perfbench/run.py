"""Benchmark of relfuse: replication study, large fit and CLI workloads.

Usage:
    python3 perfbench/run.py --workload study-n30 --seed 0 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each is there):

* ``study-n30``: replicate seeds of the 30-observation demo, each simulated,
  fitted hierarchically and from system data alone, and exported; the first
  pass of 100 replicates gives the guardrail statistics of criteria 9 and 10.
* ``fit-n1000``: ``fit_system`` plus ``curve_export`` on one 1000-observation
  demo dataset simulated in set-up.
* ``cli-priors-n300``: ``relfuse simulate`` then ``relfuse fit --priors --svg``,
  one Python process at a time, with DP priors on ``system`` and ``electric``.

Set-up is timed ``SETUP_REPEATS`` times: ``import relfuse.cli`` in a fresh
interpreter, and the workload's own set-up in this process; ``setup_s`` is
the sum of the two medians.  Operations follow until ``--seconds`` have
passed; the study always completes its first pass.  ``op_s`` is the mean
wall time of an operation, the run's operation time over their number: a
0.13 s study operation runs wholly in a fast or a slow spell of a shared
machine, so the per-operation median jumps between the two, while the mean
weighs the spells by their length, as a study's throughput does.  Every operation's
outputs are checked, and at seed 0 compared with the reference outputs in
``perfbench/reference``.  A raised exception, a non-zero exit code or a
failed check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then with spans around relfuse's layers
(``tracing.py``), and reports per-layer metrics per traced operation plus
the tracing overhead, the median ratio of each traced operation's time to
its untraced twin's; the study's traced run is exactly one pass, so its
counts repeat.  Spans are written to ``.perfbench_out/``.

Per-layer metrics are per operation.  What each should move, and where:

* ``bsp.second_moment.*``, ``fusion.moments_of.*``: op_s of fit-n1000 and of
  the ``relfuse fit`` process of cli-priors-n300; hardly study-n30.
* ``bsp.credible_interval.*``: op_s of all three workloads.
* ``bsp.posterior_update``, ``fusion.recover_precision``, ``fusion.combine``,
  ``pipeline.fit_system``, ``pipeline.curve_export``: op_s of fit-n1000 and
  study-n30.
* ``fusion.merge_priors``: op_s of cli-priors-n300 only.
* ``oracle.*``: op_s of cli-priors-n300 (each ``relfuse simulate`` calibrates
  censoring cold), setup_s of study-n30 and fit-n1000, and the warm sampling
  in study-n30's op_s.
* ``dataio.*``, ``rbd.*``, ``cli.*``: op_s of cli-priors-n300 only.
* clamp warnings by kind and ``pipeline.root_grid_points``: counts that make
  no speed claim.

The next-to-last stdout line is a JSON record of provenance and the
workload's named figures; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits 2 without a result when the relfuse sources are not next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("study-n30", "fit-n1000", "cli-priors-n300")
SETUP_REPEATS = 3
MAX_ERRORS_SHOWN = 5

# One BLAS/OpenMP thread, here and in the CLI processes, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 also checks the reference)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for per-layer metrics")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes and one set-up, for selftest.py"
    )
    return parser.parse_args(argv)


def import_relfuse():
    """Import relfuse from ``src/`` beside the benchmark, or return None."""
    if not (SRC / "relfuse" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import relfuse

    if Path(relfuse.__file__).resolve().parent != (SRC / "relfuse").resolve():
        return None
    return numpy, scipy


def time_import() -> float:
    """Wall time of a fresh interpreter importing the relfuse CLI and its dependencies."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import relfuse.cli"]
    t0 = perf_counter()
    # Captured output makes run() return at the child's exit; without pipes,
    # waiting with a timeout polls in steps of up to 50 ms.
    subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=120)
    return perf_counter() - t0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "relfuse").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_max() -> str | None:
    """The cgroup CPU quota in the form of cgroup v2's ``cpu.max``, read only."""
    cgroup = Path("/sys/fs/cgroup")
    try:
        return (cgroup / "cpu.max").read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:  # cgroup v1
        quota = int((cgroup / "cpu" / "cpu.cfs_quota_us").read_text(encoding="utf-8"))
        period = (cgroup / "cpu" / "cpu.cfs_period_us").read_text(encoding="utf-8").strip()
    except (OSError, ValueError):
        return None
    return f"{'max' if quota < 0 else quota} {period}"


def provenance(args, numpy, scipy) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": _cpu_max(),
        "platform": platform.platform(),
    }


def timing_summary(values: list[float]) -> dict:
    """Mean, median, sample count, and the highest of p90/p99 with ten samples beyond it."""
    out = {"mean": statistics.fmean(values), "median": statistics.median(values), "n": len(values)}
    for pct, need in ((99, 1000), (90, 100)):
        if len(values) >= need:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def peak_rss_mb(who: str) -> float:
    scope = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(scope).ru_maxrss / 1024.0


class Phase:
    """Checked operations of one kind (untraced or traced), by operation index."""

    def __init__(self):
        self.ops: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def median(self, key: str) -> float:
        return statistics.median(getattr(op, key) for op in self.ops.values())

    def mean(self, key: str) -> float:
        return statistics.fmean(getattr(op, key) for op in self.ops.values())

    def clamps_total(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for op in self.ops.values():
            for kind, n in op.clamps.items():
                total[kind] = total.get(kind, 0) + n
        return total

    def run(self, wl, i: int, reference, tracer=None) -> None:
        """Run and check operation ``i``; any exception counts it as failed."""
        import checks

        self.attempted += 1
        try:
            op = wl.run_op(i, tracer)
            for cols in op.outputs:
                checks.check_export(cols)
            ref_i = wl.reference_index(i) if reference is not None else None
            if ref_i is not None:
                for cols, ref_cols in zip(op.outputs, reference[ref_i], strict=True):
                    checks.compare_reference(cols, ref_cols)
            wl.after_op(i, op)
            self.ops[i] = op
        except Exception as exc:  # every failure counts against the operation
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")


def run_ops(wl, budget: float, reference, tracer=None) -> list[Phase]:
    """Run operations for about ``budget`` seconds, at least one unit of them.

    Without a tracer, one untraced phase.  With one, each operation runs
    untraced and then traced, so both phases see the same inputs and the
    same moments of machine speed; a workload with ``trace_whole_units``
    then runs exactly one unit.
    """
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    start = perf_counter()
    i = 0
    while True:
        phases[0].run(wl, i, reference)
        if tracer is not None:
            tracer.op_id = i
            tracer.install_probes()
            try:
                phases[1].run(wl, i, reference, tracer)
            finally:
                tracer.uninstall()
        i += 1
        if i < wl.unit:
            continue
        if tracer is not None and wl.trace_whole_units:
            return phases
        # Stop at the operation boundary nearest to the end of the budget.
        typical = sum(p.median("op_s") for p in phases if p.ops)
        if perf_counter() - start + typical / 2 >= budget:
            return phases


def layer_metrics(tracer, phase: Phase, tracing) -> dict:
    n = max(phase.attempted, 1)
    self_s, calls = tracer.totals()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
    for name in tracing.CALL_COUNTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for name in tracing.COUNTERS:
        unit = "s" if name.endswith("_s") else "B" if name.endswith("bytes_written") else "count"
        metrics[name] = (tracer.counters.get(name, 0) / n, unit)
    for kind, total in phase.clamps_total().items():
        metrics[f"fusion.clamp_warnings.{kind}"] = (total / n, "count")
    return metrics


def write_spans(tracer, path: Path, numpy) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    numpy.savez_compressed(
        path,
        names=numpy.array(tracer.names),
        name_id=numpy.frombuffer(tracer.name_id, dtype=numpy.int32),
        start=numpy.frombuffer(tracer.start, dtype=numpy.float64),
        end=numpy.frombuffer(tracer.end, dtype=numpy.float64),
        parent=numpy.frombuffer(tracer.parent, dtype=numpy.int32),
        op=numpy.frombuffer(tracer.op, dtype=numpy.int32),
    )


def phase_figures(phase: Phase) -> dict:
    return {
        "op_s": (timing_summary([op.op_s for op in phase.ops.values()]), "s"),
        "fit_s": (timing_summary([op.fit_s for op in phase.ops.values()]), "s"),
        "clamp_warnings": (phase.clamps_total(), "count"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    imported = import_relfuse()
    if imported is None:
        print(f"error: relfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    numpy, scipy = imported
    import checks
    import tracing
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        import_times, setup_times = [], []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            import_times.append(time_import())
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        reference, ref_stats = None, {}
        if args.seed == 0 and not args.smoke:
            reference, ref_stats = checks.load_reference(HERE / "reference" / f"{args.workload}.npz")

        tracer = tracing.Tracer() if args.trace else None
        phases = run_ops(wl, args.seconds, reference, tracer)
        plain, traced = phases[0], phases[-1]
        errors = [e for p in phases for e in p.errors]
        complete = all(p.ops for p in phases)

        figures: dict = {}
        stats_ok = True
        try:
            figures = wl.finish()
            checks.compare_stats({k: v for k, (v, _) in figures.items()}, ref_stats)
        except Exception as exc:  # a guardrail that fails or cannot be computed fails the run
            stats_ok = False
            errors.append(f"statistics: {type(exc).__name__}: {exc}")
        failed = sum(p.failed for p in phases)
        rss = peak_rss_mb(wl.rss_who)
        if plain.ops:
            figures.update(wl.named_timings(list(plain.ops.values())))
        figures.update(setup_s=(setup_s, "s"), peak_rss_mb=(rss, "MB"))

        record = {
            "provenance": provenance(args, numpy, scipy),
            "setup": {"import_s": import_times, "workload_s": setup_times},
            "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
            "errors": errors,
        }
        for label, phase in zip(("untraced", "traced"), phases):
            if phase.ops:
                record[label] = {k: {"value": v, "unit": u} for k, (v, u) in phase_figures(phase).items()}
        metrics: dict = {}
        if complete and tracer is not None:
            metrics = layer_metrics(tracer, traced, tracing)
            paired = [traced.ops[i].op_s / op.op_s for i, op in plain.ops.items() if i in traced.ops]
            metrics["trace.overhead_pct"] = (100.0 * (statistics.median(paired) - 1.0), "%")
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
            write_spans(tracer, spans_path, numpy)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        elif complete:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (plain.mean("op_s"), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
        for e in errors:
            print(f"perfbench: {e}", file=sys.stderr)
        print(json.dumps(record))
        result = {
            "correct": failed == 0 and complete and stats_ok,
            "attempted": sum(p.attempted for p in phases),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
