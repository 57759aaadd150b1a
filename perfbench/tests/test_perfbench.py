"""Checks of the benchmark itself: its reference net, its accounting and
its tracer.  Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools

import pytest

from perfbench import run
from perfbench.layers import LAYERS, TraceResult, per_layer_metrics
from perfbench.speed import SpeedSampler
from perfbench.tracer import Layer, Tracer
from perfbench.workloads import RING3, BottomRank2, Query


@pytest.fixture()
def m():
    return run.fresh_import()


def test_ring3_known_answers_agree_with_oracle(m):
    net = m.net.load_net(str(RING3))
    space = m.oracle.BoundedStateSpace(net, 4)
    pts = list(itertools.product(range(5), repeat=3))
    decided = 0
    for x in pts:
        assert space.bottom(x) in (True, None)
        for y in pts:
            verdict = space.mutual(x, y)
            if verdict is not None:
                decided += 1
                assert verdict == (sum(x) == sum(y)), (x, y)
    assert all(space.bottom(x) for x in pts if sum(x) <= 4)
    assert decided > 1000


def test_ring3_bottom_formula_has_rank_two_tuple(m, tmp_path):
    w = BottomRank2(tmp_path)
    w.setup(m)
    ranks = [len(m.presburger.lattice_basis(t.rep)) for t in w.formula.tuples]
    assert max(ranks) >= 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bottom_points_reach_the_rank_two_tuple(m, tmp_path, seed):
    w = BottomRank2(tmp_path)
    w.setup(m)
    pz = m.presburger
    for c in w.stream(seed):
        matching = [
            t for t in w.formula.tuples
            if tuple(c[i] for i in t.index_set) == t.state
            and any(all(ci >= mi for ci, mi in zip(c, mv)) for mv in t.membership)
        ]
        assert any(len(pz.lattice_basis(t.rep)) >= 2 for t in matching), c
    # and eval_bottom really takes the rank-2 path on them
    tracer = Tracer(LAYERS)
    with tracer:
        for c in w.stream(seed)[:3]:
            w.op(c)
    assert tracer.stats["presburger.lattice_box_feasible"].counters.get("rank2", 0) > 0


ACCEPT_ALL = """kind mutual
dim 3
provenance certified
complete 1
state-bound 4
cycle-len 4
disjunct
a 0 0 0
b 0 0 0
v 0 0 0
pair 1 : 1 0 0
pair 1 : 0 1 0
pair 1 : 0 0 1
end
"""


def test_false_accepts_count_as_failures(m, tmp_path):
    w = Query(tmp_path)
    w.setup(m)
    w.prepare()
    items = w.stream(7)[:300]
    sampler = SpeedSampler()

    records, _ = run.measure(w, items, sampler, limit=len(items))
    honest = w.account(records, 7)
    assert honest.failed == 0 and honest.attempted == len(items)

    w.mrf.write_text(ACCEPT_ALL, encoding="utf-8")
    records, _ = run.measure(w, items, sampler, limit=len(items))
    wrong = w.account(records, 7)
    assert wrong.failed > 0
    assert wrong.failed == sum(1 for x, y in items if w.oracle.mutual(x, y) is False)


def test_tracer_reports_absent_layers_and_restores_bindings(m):
    import sys

    def bindings():
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if name.startswith("mutreach")
            for attr, value in vars(mod).items()
            if callable(value)
        }

    before = bindings()
    layers = [
        Layer("gone.no_such_function", "mutreach.unfolding", "no_such_function"),
        Layer("unfolding.enumerate_unfoldings", "mutreach.unfolding", "enumerate_unfoldings"),
        Layer("ratlp.max_positive_support", "mutreach.ratlp", "max_positive_support"),
    ]
    tracer = Tracer(layers)
    with tracer:
        # the witness module's own binding is the one its callers use
        original = before[("mutreach.witness", "enumerate_unfoldings")]
        assert m.witness.enumerate_unfoldings is not original
        net = m.net.load_net(str(run.ROOT / "fixtures" / "token_swap.net"))
        found = list(m.witness.enumerate_unfoldings(net, (0, 1), 3))
    assert bindings() == before
    assert tracer.stats["gone.no_such_function"] is None
    gen = tracer.stats["unfolding.enumerate_unfoldings"]
    lp = tracer.stats["ratlp.max_positive_support"]
    assert gen.calls == 1 and gen.yields == len(found) > 0
    assert lp.calls > 0 and 0 < lp.s <= gen.s
    assert gen.self_s == pytest.approx(gen.s - lp.s, abs=1e-3)

    tr = TraceResult(stats=tracer.stats, measured_calls={}, ops=1, overhead_s=0.0,
                     verdicts={}, time_scale=1.0)
    metrics = per_layer_metrics(tr)
    assert metrics["ratlp.max_positive_support.calls"]["value"] == lp.calls
    assert metrics["presburger.eval_bottom.calls"]["value"] is None  # never installed


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000)), 5000) == (99, 989)
    assert run.tail(list(range(100)), 100) == (90, 89)
    assert run.tail(list(range(60)), 60) == (75, 44)
    assert run.tail(list(range(15)), 15) == (50, 7)
    # chosen for one pass, taken over every sample
    assert run.tail(list(range(200)), 41) == (75, 149)
    assert run.tail([3.0, 1.0, 2.0], 1) == (50, 2.0)


def test_busy_time_excludes_probe_runs():
    s = SpeedSampler()
    s.starts, s.ends = [1.0, 2.0, 3.0], [1.5, 2.25, 3.5]
    assert s.busy(0.5, 2.5) == pytest.approx(2.0 - 0.5 - 0.25)
    assert s.kernel_ms(1.9, 2.1, pad=0) == pytest.approx(250.0)
