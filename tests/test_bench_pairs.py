"""The acceptance rule of tools/bench_pairs.py, on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
judge = bench_pairs.judge

PARENT = [41.0, 41.2, 40.9, 41.1, 41.3, 40.8, 41.0, 41.2, 41.1, 40.9]   # median 41.05, q3 - q1 = 0.25


def test_a_clear_gain_is_shown_and_within_bound():
    change = [p - 6.0 for p in PARENT]
    assert judge(PARENT, change, 0.1) == {"gain_shown": True, "within_bound": True}


def test_nine_of_ten_pairs_suffice_and_eight_do_not():
    nine = [p - 6.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    eight = [p - 6.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert judge(PARENT, nine, 0.1)["gain_shown"]
    assert not judge(PARENT, eight, 0.1)["gain_shown"]


def test_ties_count_for_neither_side():
    tied = [p - 6.0 for p in PARENT[:8]] + PARENT[8:]
    assert not judge(PARENT, tied, 0.1)["gain_shown"]


def test_a_gain_inside_the_parents_spread_is_not_shown():
    # better in every pair, but the medians differ by 0.05 < q3 - q1 = 0.25
    change = [p - 0.05 for p in PARENT]
    assert judge(PARENT, change, None) == {"gain_shown": False, "within_bound": None}


def test_the_bound_is_on_the_median_relative_to_the_parents():
    # a wall-time gain that shows in only half the pairs is not shown, yet within the bound
    parent = [0.274, 0.270, 0.280, 0.268, 0.276, 0.272, 0.278, 0.266, 0.275, 0.273]
    change = [0.253, 0.290, 0.250, 0.285, 0.255, 0.281, 0.252, 0.279, 0.254, 0.283]
    assert judge(parent, change, 0.25) == {"gain_shown": False, "within_bound": True}
    worse = [p * 1.3 for p in parent]
    assert judge(parent, worse, 0.25) == {"gain_shown": False, "within_bound": False}
    assert judge(parent, [p * 1.2 for p in parent], 0.25)["within_bound"]


def test_higher_is_better_turns_the_rule_around():
    change = [p + 6.0 for p in PARENT]
    assert judge(PARENT, change, 0.1, better="higher") == {"gain_shown": True, "within_bound": True}
    assert judge(PARENT, [p - 6.0 for p in PARENT], 0.1, better="higher") == {
        "gain_shown": False, "within_bound": False}


def test_fewer_than_ten_pairs_never_show_a_gain():
    # three of three pairs clear the 9-in-10 share, but a claim needs ten pairs
    change = [p - 6.0 for p in PARENT]
    assert judge(PARENT[:3], change[:3], 0.1) == {"gain_shown": False, "within_bound": True}
    assert not judge(PARENT[:9], change[:9], 0.1)["gain_shown"]
    assert judge(PARENT + [41.0], change + [35.0], 0.1)["gain_shown"]


def test_a_parent_spread_wider_than_the_bound_leaves_the_bound_unresolved():
    # q3 - q1 = 0.0825 s against a median of 0.2 s: more than the 25 % bound allows, so no verdict
    parent = [0.158, 0.262, 0.160, 0.250, 0.170, 0.262, 0.158, 0.230, 0.200, 0.200]
    verdict = judge(parent, [p * 1.5 for p in parent], 0.25)
    assert verdict["within_bound"] is None and not verdict["gain_shown"]
    assert judge(parent, [p * 0.5 for p in parent], 0.25)["within_bound"] is None
    # the same median with a tight spread is resolved
    tight = [0.199, 0.201, 0.200, 0.199, 0.201, 0.200, 0.199, 0.201, 0.200, 0.200]
    assert judge(tight, [p * 1.5 for p in tight], 0.25)["within_bound"] is False


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        judge(PARENT, PARENT[:9], 0.1)
    with pytest.raises(ValueError):
        judge([1.0], [0.5], 0.1)
