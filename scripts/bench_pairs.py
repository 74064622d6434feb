"""Run the benchmark on a parent revision and the working tree in alternating pairs.

The parent revision is exported with ``git archive`` into a temporary
directory outside the repository.  For each workload, pair k runs
``perfbench/run.py`` once on each side with seed ``SEEDS[k % len(SEEDS)]``;
even pairs run the parent first, odd pairs the working tree.  Every run has
the same length.  ``--traced`` adds one traced seed-0 run per side.

Per workload and end-to-end metric (named in ``BENCHMARK.json``), the output
holds each side's raw values, median and quartiles, the pairs the change won,
lost and tied, and whether a gain may be claimed: at least ten pairs, at
least nine tenths of them won, a median gap larger than the parent's quartile
spread, and no more failed runs on the change's side than on the parent's.
A pair in which either side has no value for the metric counts as run and
not won.  The metric has regressed when the change's median is worse than
the parent's by more than the metric's ``bound`` in ``BENCHMARK.json``,
taken relative to the parent's median.  It is unresolved when the parent's
quartile spread is wider than that bound, so the runs cannot tell a
regression from noise, unless every run of the change is better than every
run of the parent.  Every run lasts ``BENCHMARK.json``'s ``run_seconds``.

Usage:
    python3 scripts/bench_pairs.py --parent HEAD~1 --pr 8 \\
        --run cli-priors-n300=10 --run study-n30=3 --run fit-n1000=3 \\
        --seeds 1 2 3 --traced cli-priors-n300

Needs only the standard library and git; writes ``BENCH_<pr>.json`` at the
repository root.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCHMARK.json"
SIDES = ("parent", "change")
STDERR_TAIL = 2000
MIN_PAIRS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    parser.add_argument(
        "--run", action="append", default=[], metavar="WORKLOAD=PAIRS",
        help="workload and its number of pairs (repeatable)",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="seeds the pairs cycle through")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                        help="also run WORKLOAD traced at seed 0 on each side (repeatable)")
    args = parser.parse_args(argv)
    plan = []
    for item in args.run:
        name, sep, pairs = item.partition("=")
        if not sep or not pairs.isdigit() or int(pairs) < 1:
            parser.error(f"--run expects WORKLOAD=PAIRS, got {item!r}")
        plan.append((name, int(pairs)))
    if not plan and not args.traced:
        parser.error("nothing to run: give --run or --traced")
    args.plan = plan
    return args


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True, **kwargs)


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    archive = git("archive", "--format=tar", commit).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``: its result line, provenance record and exit code."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    out = {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-STDERR_TAIL:]}
    try:
        out["record"] = json.loads(lines[-2])
        out["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out["result"] = None
    return out


def kept(run: dict) -> dict:
    """What the output keeps of a run: the stderr tail only when it failed."""
    out = {"exit_code": run["exit_code"], "result": run["result"],
           "figures": (run.get("record") or {}).get("figures")}
    if failed(run):
        out["stderr_tail"] = run["stderr_tail"]
    return out


def metric_value(run: dict, name: str):
    result = run.get("result") or {}
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def side_summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def failed(run: dict) -> bool:
    """A run that crashed, gave no result, was incorrect or had a failed operation."""
    result = run["result"] or {}
    return not result.get("correct", False) or result.get("failed", 0) > 0


def compare(pairs: list[dict], name: str, unit: str, better: str, bound: float) -> dict:
    """The pair rule for one metric: wins, medians, and whether a gain may be claimed.

    ``regressed`` is set when the change's median is worse than the parent's
    by more than ``bound`` times the parent's median; ``unresolved`` when the
    parent's quartile spread exceeds that margin and some change run is not
    better than every parent run.
    """
    got = [(metric_value(p["parent"], name), metric_value(p["change"], name)) for p in pairs]
    complete = [(a, b) for a, b in got if a is not None and b is not None]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in complete if sign * (a - b) > 0)
    losses = sum(1 for a, b in complete if sign * (b - a) > 0)
    failures = {side: sum(1 for p in pairs if failed(p[side])) for side in SIDES}
    out: dict = {
        "unit": unit,
        "better": better,
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "ties": len(complete) - wins - losses,
        "incomplete": len(pairs) - len(complete),
        "failed_runs": failures,
        "gain_claimable": False,
        "regressed": False,
        "unresolved": False,
    }
    parent_values = [a for a, _ in got if a is not None]
    change_values = [b for _, b in got if b is not None]
    if not parent_values or not change_values:
        return out
    parent = side_summary(parent_values)
    change = side_summary(change_values)
    gap = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    out.update(
        parent=parent,
        change=change,
        median_gain=gap,
        parent_quartile_spread=spread,
        gain_claimable=(
            len(pairs) >= MIN_PAIRS
            and wins >= 0.9 * len(pairs)
            and gap > spread
            and failures["change"] <= failures["parent"]
        ),
        regressed=-gap > bound * abs(parent["median"]),
        unresolved=(
            spread > bound * abs(parent["median"])
            and not all(sign * (a - b) > 0 for a in parent_values for b in change_values)
        ),
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads(BENCH.read_text(encoding="utf-8"))
    command = bench["command"]
    seconds = float(bench["run_seconds"])
    known = {w["name"] for w in bench["workloads"]}
    unknown = [name for name, _ in args.plan if name not in known] + [
        name for name in args.traced if name not in known
    ]
    if unknown:
        print(f"error: unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent_commit = export_revision(args.parent, tmp)
        trees = {"parent": tmp, "change": ROOT}
        head = git("rev-parse", "HEAD", text=True).stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no", text=True).stdout.strip())
        if parent_commit == head and not dirty:
            print(f"error: --parent {args.parent} is the committed working tree; "
                  "nothing would differ", file=sys.stderr)
            return 2
        report: dict = {
            "parent": parent_commit,
            "change": f"working tree at {head}" + (" with uncommitted changes" if dirty else ""),
            "command": command,
            "run_seconds": seconds,
            "seeds": args.seeds,
            "host": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpus": os.cpu_count(),
            },
            "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "rule": f"gain claimable when at least {MIN_PAIRS} pairs ran, the change wins at least "
            "9/10 of them (a tie or a pair missing the metric is not a win), the median gain "
            "exceeds the parent's quartile spread, and the change has no more failed runs "
            "than the parent; a metric regressed when the change's median is worse than the "
            "parent's by more than its bound times the parent's median, and is unresolved when "
            "the parent's quartile spread exceeds that margin, unless every change run is better "
            "than every parent run",
            "workloads": {},
            "traced": {},
        }
        for name, n_pairs in args.plan:
            pairs = []
            for k in range(n_pairs):
                seed = args.seeds[k % len(args.seeds)]
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"{name} pair {k + 1}/{n_pairs} seed {seed}: {side}", file=sys.stderr, flush=True)
                    pair[side] = run_once(trees[side], command, name, seed, seconds, trace=0)
                pairs.append(pair)
            report["workloads"][name] = {
                "metrics": {
                    m["name"]: compare(pairs, m["name"], m["unit"], m["better"], m["bound"])
                    for m in bench["end_to_end"]
                },
                "failed_runs": sum(1 for p in pairs for s in SIDES if failed(p[s])),
                "runs": [
                    {"seed": p["seed"], "first": p["first"], **{s: kept(p[s]) for s in SIDES}}
                    for p in pairs
                ],
            }
        for name in args.traced:
            traced = {}
            for side in SIDES:
                print(f"{name} traced seed 0: {side}", file=sys.stderr, flush=True)
                traced[side] = kept(run_once(trees[side], command, name, 0, seconds, trace=1))
            report["traced"][name] = traced
        report["finished"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        out_path = ROOT / f"BENCH_{args.pr}.json"
        out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out_path}", file=sys.stderr)
        for name, entry in report["workloads"].items():
            for metric, c in entry["metrics"].items():
                if "parent" in c:
                    print(
                        f"{name:16s} {metric:12s} parent {c['parent']['median']:.4g} "
                        f"[{c['parent']['q1']:.4g}, {c['parent']['q3']:.4g}]  change "
                        f"{c['change']['median']:.4g} [{c['change']['q1']:.4g}, {c['change']['q3']:.4g}]  "
                        f"wins {c['wins']}/{c['pairs']}  claimable {c['gain_claimable']}  "
                        f"regressed {c['regressed']}  unresolved {c['unresolved']}"
                    )
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
