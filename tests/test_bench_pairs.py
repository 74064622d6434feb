"""The pair rule of scripts/bench_pairs.py: when a gain may be claimed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(value=None, correct=True, failed_ops=0):
    """One side of a pair; ``value=None`` leaves the metric out, ``correct=None`` has no result."""
    if correct is None:
        return {"result": None}
    metrics = {} if value is None else {"rss": {"value": value, "unit": "MB"}}
    return {"result": {"correct": correct, "failed": failed_ops, "metrics": metrics}}


def pairs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


PARENT = [88.5, 88.6, 88.4, 88.7, 88.5, 88.6, 88.5, 88.4, 88.6, 88.5]
CHANGE = [82.0] * 10


def claim(ps, better="lower", bound=0.05):
    return bench_pairs.compare(ps, "rss", "MB", better, bound)


def test_clear_gain_over_ten_pairs_is_claimable():
    out = claim(pairs([run(v) for v in PARENT], [run(v) for v in CHANGE]))
    assert (out["pairs"], out["wins"], out["losses"], out["ties"]) == (10, 10, 0, 0)
    assert out["median_gain"] > out["parent_quartile_spread"]
    assert out["gain_claimable"]


def test_fewer_than_ten_pairs_are_not_enough():
    out = claim(pairs([run(v) for v in PARENT[:3]], [run(v) for v in CHANGE[:3]]))
    assert out["wins"] == 3 == out["pairs"]
    assert not out["gain_claimable"]


def test_pairs_missing_the_metric_stay_in_the_denominator():
    # Two change runs report no value: 8 wins of 10 pairs, not 8 of 8.
    change = [run(v) for v in CHANGE[:8]] + [run(None), run(None)]
    out = claim(pairs([run(v) for v in PARENT], change))
    assert (out["pairs"], out["wins"], out["incomplete"]) == (10, 8, 2)
    assert not out["gain_claimable"]


@pytest.mark.parametrize(
    "bad",
    [run(82.0, correct=False), run(82.0, failed_ops=1), run(correct=None)],
    ids=["incorrect", "failed_operation", "no_result"],
)
def test_more_failed_runs_on_the_change_side_block_the_claim(bad):
    # Eleven pairs, so ten clean wins would otherwise carry the claim.
    parent = [run(v) for v in PARENT + [88.5]]
    change = [run(v) for v in CHANGE] + [bad]
    out = claim(pairs(parent, change))
    assert out["failed_runs"] == {"parent": 0, "change": 1}
    assert not out["gain_claimable"]
    # The same failure on the parent's side as well no longer blocks it.
    parent[-1] = bad
    assert claim(pairs(parent, change))["gain_claimable"]


def test_ties_are_not_wins():
    out = claim(pairs([run(v) for v in PARENT], [run(v) for v in PARENT]))
    assert (out["wins"], out["ties"]) == (0, 10)
    assert not out["gain_claimable"]


def test_gap_within_the_parent_spread_is_not_claimable():
    parent = [80.0, 90.0] * 5
    change = [v - 0.5 for v in parent]
    out = claim(pairs([run(v) for v in parent], [run(v) for v in change]))
    assert out["wins"] == 10
    assert out["median_gain"] <= out["parent_quartile_spread"]
    assert not out["gain_claimable"]


def test_higher_is_better_flips_the_sign():
    parent = [run(v) for v in PARENT]
    change = [run(v) for v in CHANGE]
    assert not claim(pairs(parent, change), better="higher")["gain_claimable"]
    assert claim(pairs(change, parent), better="higher")["gain_claimable"]


def test_parent_revision_is_required():
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--pr", "x", "--run", "study-n30=1"])


@pytest.mark.parametrize(
    "factor, better, regressed",
    [(1.06, "lower", True), (1.04, "lower", False), (0.94, "higher", True), (1.06, "higher", False)],
    ids=["lower_up_6pct", "lower_up_4pct", "higher_down_6pct", "higher_up_6pct"],
)
def test_regression_past_the_bound_is_flagged(factor, better, regressed):
    parent = [run(v) for v in PARENT[:3]]
    change = [run(v * factor) for v in PARENT[:3]]
    assert claim(pairs(parent, change), better)["regressed"] is regressed


WIDE = [80.0, 90.0] * 5  # quartile spread 10 around a median of 85: wider than a 5% bound


@pytest.mark.parametrize(
    "parent, change, better, unresolved",
    [
        (WIDE, WIDE, "lower", True),
        (WIDE, [79.0] * 10, "lower", False),
        (WIDE, [80.0] * 10, "lower", True),
        (WIDE, [91.0] * 10, "higher", False),
        (WIDE, [79.0] * 10, "higher", True),
        (PARENT, PARENT, "lower", False),
    ],
    ids=["same_runs", "all_better", "one_tie", "higher_all_better", "higher_all_worse", "narrow_spread"],
)
def test_parent_spread_past_the_bound_is_unresolved(parent, change, better, unresolved):
    out = claim(pairs([run(v) for v in parent], [run(v) for v in change]), better)
    assert out["unresolved"] is unresolved


def test_unresolved_leaves_regressed_as_it_was():
    parent = [run(v) for v in WIDE]
    out = claim(pairs(parent, [run(v * 1.04) for v in WIDE]))
    assert (out["unresolved"], out["regressed"]) == (True, False)
    out = claim(pairs(parent, [run(v * 1.06) for v in WIDE]))
    assert (out["unresolved"], out["regressed"]) == (True, True)


@pytest.mark.parametrize(
    "record, workload",
    [("BENCH_26.json", "fit-n1000"), ("BENCH_25.json", "cli-priors-n300")],
)
def test_committed_setup_noise_reads_unresolved(record, workload):
    # Both parents' setup_s quartiles spanned more than the 25% bound (45% and 27%).
    runs = json.loads((bench_pairs.ROOT / record).read_text())["workloads"][workload]["runs"]
    [bound] = [m["bound"] for m in json.loads(bench_pairs.BENCH.read_text())["end_to_end"] if m["name"] == "setup_s"]
    out = bench_pairs.compare(runs, "setup_s", "s", "lower", bound)
    assert (out["regressed"], out["unresolved"]) == (False, True)
