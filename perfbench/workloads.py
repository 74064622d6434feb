"""The benchmark's three workloads.

Each workload is set up from the benchmark seed alone; relfuse sees only the
inputs generated here.  ``run_op`` performs one operation and returns its
timings and outputs; the runner checks the outputs and hands them back to
``after_op``, which keeps what the workload's statistics need.

relfuse functions are always called through their module (``pipeline.fit_system``),
never through a name bound at import, so the tracer's probes see the calls.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from relfuse import demo, pipeline
from relfuse.errors import PrecisionRecoveryWarning

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Replicate seeds of the study: pass k of benchmark seed s uses seeds
# s * STUDY_SEED_STRIDE + j, so seed 0's first pass is the loop of criteria 9
# and 10 (replicates 0..99).
STUDY_SEED_STRIDE = 10_000
PRIOR_PRECISION = 20.0
PRIOR_POINTS = 40
PRIOR_NODES = ("system", "electric")
CHILD_TIMEOUT_S = 60.0


@dataclass
class Op:
    """Timings and outputs of one operation."""

    op_s: float
    fit_s: float
    outputs: list[dict]
    clamps: dict[str, int] = field(default_factory=dict)


def _recorded_fit(fit):
    """Run ``fit()`` while recording every PrecisionRecoveryWarning it issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PrecisionRecoveryWarning)
        result = fit()
    return result, checks.count_clamps(str(w.message) for w in caught)


def _demo_config(n_per_node: int) -> demo.DemoConfig:
    # demo_config() builds fresh samplers, so each set-up calibrates censoring cold.
    base = demo.demo_config()
    return demo.DemoConfig(base.rbd_source, base.components, n_per_node=n_per_node)


class Workload:
    """Defaults for a workload whose operations all repeat the same inputs."""

    rss_who = "self"  # whose peak RSS to report: "self" or "children"
    unit = 1  # a run does at least this many operations
    reference_ops = 1  # operations whose outputs the reference holds
    trace_whole_units = False  # traced runs do exactly one unit

    def reference_index(self, i: int) -> int | None:
        return 0

    def after_op(self, i: int, op: Op) -> None:
        pass

    def finish(self) -> dict:
        return {}


class StudyWorkload(Workload):
    """Replication study at 30 observations per node, as in criteria 9 and 10.

    One operation is one replicate seed: simulate, fit hierarchically and
    from system data alone, export both.  A pass is ``pass_size`` consecutive
    replicates; the guardrail statistics come from the first pass.
    """

    name = "study-n30"
    reference_ops = 20
    trace_whole_units = True

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n_per_node = 30
        self.pass_size = self.unit = 2 if smoke else 100
        self.widths: dict[int, tuple[float, float]] = {}
        self.covered: dict[int, bool] = {}

    def replicate(self, i: int) -> int:
        return self.seed * STUDY_SEED_STRIDE + i

    def setup(self) -> None:
        self.cfg = _demo_config(self.n_per_node)
        self.cfg.simulate(self.replicate(0))

    def reference_index(self, i: int) -> int | None:
        return i if i < self.reference_ops else None

    def run_op(self, i: int, tracer=None) -> Op:
        spec = self.cfg.spec
        t0 = perf_counter()
        datasets = self.cfg.simulate(self.replicate(i))
        t1 = perf_counter()
        (hier, sysonly), clamps = _recorded_fit(
            lambda: (
                pipeline.curve_export(pipeline.fit_system(spec, datasets).posterior),
                pipeline.curve_export(pipeline.fit_system_only(spec, datasets).posterior),
            )
        )
        t2 = perf_counter()
        return Op(t2 - t0, t2 - t1, [checks.columns_of(hier), checks.columns_of(sysonly)], clamps)

    def after_op(self, i: int, op: Op) -> None:
        if i < self.pass_size:
            hier, sysonly = op.outputs
            self.widths[i] = checks.shared_band_widths(hier, sysonly)
            self.covered[i] = checks.covers_truth(hier, self.cfg.true_system_cdf)

    def named_timings(self, ops: list[Op]) -> dict:
        return {"study_seeds_per_s": (len(ops) / sum(op.op_s for op in ops), "seeds/s")}

    def finish(self) -> dict:
        widths = [self.widths[i] for i in sorted(self.widths)]
        hier_w = sum(h for h, _ in widths)
        sys_w = sum(s for _, s in widths)
        wins = sum(h < s for h, s in widths)
        coverage = sum(self.covered.values()) / len(self.covered)
        if wins < 0.95 * len(widths):
            raise checks.CheckError(f"hierarchical bands narrower in only {wins}/{len(widths)} replicates")
        return {
            "band_width_ratio": (hier_w / sys_w, "1"),
            "band_width_wins": (wins, "count"),
            "replicates": (len(widths), "count"),
            "coverage": (coverage, "1"),
            "coverage_gap": (abs(coverage - 0.95), "1"),
        }


class FitWorkload(Workload):
    """One large hierarchical fit: 1000 observations per node, simulated in set-up.

    One operation is ``fit_system`` plus ``curve_export`` on that dataset.
    """

    name = "fit-n1000"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n_per_node = 60 if smoke else 1000

    def setup(self) -> None:
        self.cfg = _demo_config(self.n_per_node)
        self.datasets = self.cfg.simulate(self.seed)

    def run_op(self, i: int, tracer=None) -> Op:
        spec, datasets = self.cfg.spec, self.datasets
        t0 = perf_counter()
        curve, clamps = _recorded_fit(
            lambda: pipeline.curve_export(pipeline.fit_system(spec, datasets).posterior)
        )
        t1 = perf_counter()
        return Op(t1 - t0, t1 - t0, [checks.columns_of(curve)], clamps)

    def named_timings(self, ops: list[Op]) -> dict:
        return {"fit_s": (statistics.median(op.fit_s for op in ops), "s")}


def _child_env() -> dict[str, str]:
    # run.py has set the BLAS/OpenMP thread counts to 1 in os.environ.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RELFUSE_PRECISION_CAP", None)
    return env


class CliWorkload(Workload):
    """The README quick start with elicited priors, one CLI process at a time.

    One operation is ``relfuse simulate`` (300 observations per node) then
    ``relfuse fit --priors ... --svg`` on its output, each a fresh Python
    process that pays the import and a cold censoring calibration.  Its
    ``fit_s`` is the ``relfuse fit`` process alone.
    """

    name = "cli-priors-n300"
    rss_who = "children"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n_per_node = 30 if smoke else 300
        self.workdir = workdir
        self.config_path = workdir / "sim_config.json"
        self.priors_path = workdir / "priors.csv"
        self.sim_dir = workdir / "sim"
        self.fit_dir = workdir / "fit"
        self.env = _child_env()

    def setup(self) -> None:
        cfg = _demo_config(self.n_per_node)
        self.expected_obs = self.n_per_node * len(cfg.samplers())
        components = {
            name: {"shape": w.shape, "scale": w.scale} for name, w in cfg.components.items()
        }
        config = {
            "rbd": cfg.rbd_source,
            "components": components,
            "n_per_node": self.n_per_node,
            "censor_fraction": cfg.censor_fraction,
        }
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        rows = ["node,time,cdf,precision"]
        for label in PRIOR_NODES:
            sampler = cfg.samplers()[label]
            t_hi = sampler.time_scale()
            while sampler.cdf(t_hi) < 0.999:
                t_hi *= 2.0
            times = np.linspace(t_hi / PRIOR_POINTS, t_hi, PRIOR_POINTS)
            cdf = np.asarray(sampler.cdf(times), dtype=np.float64)
            cdf[-1] = 1.0
            rows += [f"{label},{t:.12g},{c:.12g},{PRIOR_PRECISION:g}" for t, c in zip(times, cdf)]
        self.priors_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def _cli(self, args: list[str], tracer, op_id: int) -> subprocess.CompletedProcess:
        args = [str(a) for a in args]
        # Print every warning, so counting stderr lines counts every clamp
        # whichever frame the warning is attributed to.
        python = [sys.executable, "-W", "always::UserWarning"]
        if tracer is None:
            cmd = [*python, "-m", "relfuse.cli", *args]
        else:
            spans = self.workdir / "child_spans.json"
            cmd = [*python, str(HERE / "cli_child.py"), str(spans), "--", *args]
        proc = subprocess.run(
            cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
        if tracer is not None and spans.exists():
            tracer.merge_json(json.loads(spans.read_text(encoding="utf-8")), op_id)
            spans.unlink()
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise checks.CheckError(f"relfuse {args[0]} exited {proc.returncode}: {' | '.join(tail)}")
        return proc

    def run_op(self, i: int, tracer=None) -> Op:
        sim_args = ["simulate", "--config", self.config_path, "--seed", self.seed, "--out", self.sim_dir]
        fit_args = [
            "fit",
            "--rbd", self.sim_dir / "system.rbd",
            "--data", self.sim_dir / "lifetimes.csv",
            "--priors", self.priors_path,
            "--out", self.fit_dir,
            "--svg",
        ]
        t0 = perf_counter()
        sim = self._cli(sim_args, tracer, i)
        t1 = perf_counter()
        fit = self._cli(fit_args, tracer, i)
        t2 = perf_counter()
        match = re.search(r"simulated \d+ datasets, (\d+) observations", sim.stdout)
        if not match or int(match.group(1)) != self.expected_obs:
            raise checks.CheckError(f"relfuse simulate did not report {self.expected_obs} observations")
        rows = len((self.sim_dir / "lifetimes.csv").read_text(encoding="utf-8").splitlines()) - 1
        if rows != self.expected_obs:
            raise checks.CheckError(f"lifetimes.csv has {rows} rows, expected {self.expected_obs}")
        match = re.search(r"hierarchical fit: (\d+) grid points", fit.stdout)
        if not match:
            raise checks.CheckError("relfuse fit did not report its grid size")
        cols = checks.read_export_csv(self.fit_dir / "system_cdf.csv")
        if cols["t"].size != int(match.group(1)):
            raise checks.CheckError("system_cdf.csv row count differs from the reported grid size")
        svg = self.fit_dir / "system_cdf.svg"
        if not svg.exists() or "</svg>" not in svg.read_text(encoding="utf-8"):
            raise checks.CheckError("system_cdf.svg is missing or incomplete")
        clamps = checks.count_clamps(checks.stderr_warning_messages(sim.stderr + fit.stderr))
        return Op(t2 - t0, t2 - t1, [cols], clamps)

    def named_timings(self, ops: list[Op]) -> dict:
        return {
            "cli_simulate_s": (statistics.median(op.op_s - op.fit_s for op in ops), "s"),
            "cli_fit_s": (statistics.median(op.fit_s for op in ops), "s"),
        }


WORKLOADS = {w.name: w for w in (StudyWorkload, FitWorkload, CliWorkload)}
