"""Smoke self-test of the benchmark.

Usage:
    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` once at tiny size (``run.py
--smoke``), untraced and traced, and asserts that the result line has exactly
the contract's keys, that operations were attempted and none failed, that
the metrics are exactly the end-to-end (untraced) or per-layer (traced)
metrics of ``BENCHMARK.json`` with their units, and that the provenance
record names each workload's figures with units.  Last, it runs the benchmark
in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
where it must exit non-zero without printing a result.  Exits 1 on the first
failed assertion.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170

# Figures the provenance record names, per workload, beyond its metrics.
NAMED_FIGURES = {
    "study-n30": ("study_seeds_per_s", "band_width_ratio", "band_width_wins", "coverage_gap"),
    "fit-n1000": ("fit_s",),
    "cli-priors-n300": ("cli_simulate_s", "cli_fit_s"),
}
COMMON_FIGURES = ("setup_s", "peak_rss_mb")


def run(bench: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = bench["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(bench: dict, workload: str, trace: int) -> None:
    proc = run(bench, ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["attempted"] > 0, f"{where}: no operation attempted"
    assert result["failed"] == 0 and result["correct"] is True, f"{where}: {record['errors']}"
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{where}: metrics/units differ: {set(got) ^ set(units)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name}"
    for name in COMMON_FIGURES + NAMED_FIGURES[workload]:
        fig = record["figures"].get(name)
        assert fig is not None and fig["unit"], f"{where}: figure {name} missing"
    for key in ("git_commit", "seed", "python", "numpy", "scipy", "nproc", "cgroup_cpu_max"):
        assert key in record["provenance"], f"{where}: provenance lacks {key}"
    print(f"ok  {where}: {result['attempted']} operations, {len(got)} metrics")


def check_bare_directory(bench: dict) -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench, bare, "--workload", bench["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert proc.returncode != 0, "bare directory: exit code 0"
        assert '"correct"' not in last, "bare directory: printed a result"
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                check_run(bench, workload, trace)
        check_bare_directory(bench)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
