"""The statistics of ``tools/bench_pairs.py`` on fixed numbers: medians and
quartiles interpolated as numpy's default does, wins with ties counting for
neither side, the bound and gain rules, the least-squares RSS slope, and
one workload's summary built from fixed runs."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
sys.modules.setdefault("bench_pairs", bench_pairs)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("values", [[7.0], [3.0, 1.0], [5, 1, 4, 2, 3],
                                    [10.5, 9.0, 12.25, 11.0, 9.5, 10.0]])
def test_median_and_quartiles_follow_numpy(values):
    assert bench_pairs.median(values) == np.median(values)
    for q in (0.25, 0.5, 0.75):
        assert bench_pairs.quantile(values, q) == pytest.approx(np.quantile(values, q))


def test_quartiles_of_ten_values():
    values = [5262, 5098, 5261, 5300, 5150, 5275, 5200, 5190, 5240, 5230]
    assert bench_pairs.quantile(values, 0.25) == pytest.approx(5192.5)
    assert bench_pairs.median(values) == 5235
    assert bench_pairs.quantile(values, 0.75) == pytest.approx(5261.75)


def test_wins_count_ties_for_neither_side():
    base = [10, 20, 30, 40]
    head = [11, 20, 29, 41]
    assert bench_pairs.wins(base, head, "higher") == 2
    assert bench_pairs.wins(base, head, "lower") == 1


@pytest.mark.parametrize("base, head, better, bound, inside", [
    (100.0, 75.0, "higher", 0.25, True),
    (100.0, 74.9, "higher", 0.25, False),
    (100.0, 125.0, "lower", 0.25, True),
    (100.0, 125.1, "lower", 0.25, False),
    (40.0, 44.0, "lower", 0.1, True),
    (40.0, 44.1, "lower", 0.1, False),
])
def test_within_bound(base, head, better, bound, inside):
    assert bench_pairs.within_bound(base, head, better, bound) is inside


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_base_spread():
    base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]   # quartiles 99.25, 100.75
    faster = [b + 2 for b in base]
    assert bench_pairs.gain(base, faster, "higher")
    assert not bench_pairs.gain(base, faster, "lower")
    # One loss in ten still claims; two do not.
    one_loss = faster[:9] + [base[9] - 1]
    assert bench_pairs.wins(base, one_loss, "higher") == 9
    assert bench_pairs.gain(base, one_loss, "higher")
    two_losses = faster[:8] + [base[8] - 1, base[9] - 1]
    assert not bench_pairs.gain(base, two_losses, "higher")
    # Every pair won, but the medians differ by 1, less than the spread 1.5.
    assert not bench_pairs.gain(base, [b + 1 for b in base], "higher")
    # Nine pairs are too few, however clear.
    assert not bench_pairs.gain(base[:9], faster[:9], "higher")


def test_slope_is_least_squares():
    xs = [24.3, 30.1, 18.0, 26.5]
    ys = [2.0 * x + 38.0 for x in xs]
    assert bench_pairs.slope(xs, ys) == pytest.approx(2.0)
    noisy = [1.0, 3.0, 2.0, 2.5]
    assert bench_pairs.slope(xs, noisy) == pytest.approx(np.polyfit(xs, noisy, 1)[0])
    assert bench_pairs.slope([5.0, 5.0], [1.0, 2.0]) is None


def _run(events_per_s, rss, digest="out"):
    return {"metrics": {"events_per_s": events_per_s, "peak_rss_mb": rss},
            "correct": True, "failed": 0, "input_digest": "in", "output_digest": digest}


def test_summarize_fixed_runs():
    spec = {"end_to_end": [
        {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}
    runs = [{"base": _run(5000, 40.0), "head": _run(7000, 40.4)},
            {"base": _run(5200, 40.0), "head": _run(7100, 40.4)},
            {"base": _run(5100, 40.0), "head": _run(6900, 40.4, digest="other")}]
    res = bench_pairs.summarize(runs, spec)
    eps = res["metrics"]["events_per_s"]
    assert (eps["base_median"], eps["head_median"]) == (5100, 7000)
    assert (eps["base_q1"], eps["base_q3"]) == (5050, 5150)
    assert eps["change"] == pytest.approx(7000 / 5100 - 1)
    assert (eps["wins"], eps["pairs"], eps["within_bound"]) == (3, 3, True)
    assert not eps["gain"]   # three pairs claim nothing
    rss = res["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["within_bound"], rss["gain"]) == (0, True, False)
    assert res["digests_equal"] == [True, True, False]
    xs = [5.0, 7.0, 5.2, 7.1, 5.1, 6.9]
    ys = [40.0, 40.4] * 3
    assert res["rss_mb_per_k_events_per_s"] == pytest.approx(np.polyfit(xs, ys, 1)[0])
