"""The summary step of `tools/paired_bench.py`, on canned run records:
no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

END_TO_END = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def result(p50, ops, rss, attempted=100, failed=0):
    """A `perfbench/run.py --trace 0` result line."""
    metrics = {"p50_ms": {"value": p50, "unit": "ms"}, "ops_per_s": {"value": ops, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def canned_runs():
    # (parent, change) per seed: p50 falls on 3 pairs and ties on one; ops
    # rise on every pair; RSS rises by 20 % on all four
    pairs = [
        (result(1.0, 100, 10.0), result(0.6, 160, 12.0)),
        (result(0.9, 110, 10.0), result(0.9, 120, 12.0)),
        (result(1.2, 90, 10.0, attempted=90), result(0.7, 150, 12.0, attempted=150)),
        (result(1.1, 95, 10.0), result(0.5, 170, 12.0)),
    ]
    return [
        paired_bench.pair_record(seed, "change" if seed % 2 else "parent",
                                 {"parent": parent, "change": change})
        for seed, (parent, change) in enumerate(pairs, start=1)
    ]


def test_a_pair_record_keeps_both_result_lines():
    (first, *_) = canned_runs()
    assert first == {
        "seed": 1, "first": "change",
        "correct": {"parent": True, "change": True},
        "attempted": {"parent": 100, "change": 100},
        "failed": {"parent": 0, "change": 0},
        "parent": {"p50_ms": 1.0, "ops_per_s": 100, "peak_rss_mb": 10.0},
        "change": {"p50_ms": 0.6, "ops_per_s": 160, "peak_rss_mb": 12.0},
    }
    assert canned_runs()[2]["attempted"] == {"parent": 90, "change": 150}


def test_the_summary_reads_medians_quartiles_and_pairs():
    runs = canned_runs()
    summary = paired_bench.summarize(runs, END_TO_END)
    assert summary["seeds"] == [1, 2, 3, 4]
    assert summary["parent_median"] == {"p50_ms": 1.05, "ops_per_s": 97.5, "peak_rss_mb": 10.0}
    assert summary["change_median"] == {"p50_ms": 0.65, "ops_per_s": 155.0, "peak_rss_mb": 12.0}
    # a tie counts for neither side
    assert summary["change_better_pairs"] == {"p50_ms": "3/4", "ops_per_s": "4/4", "peak_rss_mb": "0/4"}
    # statistics.quantiles(n=4, method='inclusive') of 0.9, 1.0, 1.1, 1.2
    assert summary["quartiles"]["p50_ms"] == {"parent": [0.975, 1.125], "change": [0.575, 0.75]}
    assert summary["quartiles"]["peak_rss_mb"] == {"parent": [10.0, 10.0], "change": [12.0, 12.0]}
    assert summary["median_change"] == {"p50_ms": -0.381, "ops_per_s": 0.5897, "peak_rss_mb": 0.2}
    assert summary["worse_than_bound"] == ["peak_rss_mb"]
    assert summary["runs"] is runs
    json.dumps(summary)  # the report is plain JSON


@pytest.mark.parametrize("better, change, worse", [
    ("lower", 1.25, ["m"]), ("lower", 1.2, []), ("lower", 0.5, []),
    ("higher", 0.75, ["m"]), ("higher", 0.8, []), ("higher", 2.0, []),
])
def test_only_a_median_worse_by_more_than_its_bound_is_named(better, change, worse):
    metric = [{"name": "m", "unit": "x", "better": better, "bound": 0.2}]
    runs = [{"seed": 1, "first": "change", "parent": {"m": 1.0}, "change": {"m": change}}]
    summary = paired_bench.summarize(runs, metric)
    assert summary["worse_than_bound"] == worse
    assert summary["quartiles"]["m"] == {"parent": [1.0, 1.0], "change": [change, change]}

