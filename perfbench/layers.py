"""The layers the benchmark traces and the per-layer metrics it reports.

Each entry of ``PER_LAYER`` names the end-to-end metric it should move
in the comment beside it; on a workload where the layer does no work
the prediction is no change.  Metric values of a layer whose function
no longer exists are ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from perfbench.tracer import Layer, LayerStats


def _full_support(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None and len(result) == args[1]:
        st.bump("full")


def _truncated(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None and result.truncated:
        st.bump("truncated")


def _disjuncts(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None:
        st.counters["disjuncts"] = len(result.disjuncts)


def _tuples(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None:
        st.counters["tuples"] = len(result.tuples)


def _text_bytes(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None:
        st.bump("bytes", len(result.encode("utf-8")))


def _examined(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None:
        st.bump("examined", result.examined)


def _accepted(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None:
        st.bump("accepted")


def _hit_miss(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None:
        key = "hit" if result else "miss"
        st.bump(key)
        st.bump(key + "_s", seconds)


def _box_query(st: LayerStats, args, result, exc, seconds) -> None:
    if exc is None:
        if len(args[0]) >= 2:
            st.bump("rank2")
        if result is None:
            st.bump("undecided")


SERIALIZERS = tuple(
    f"{kind}_to_{fmt}" for kind in ("mutual", "bottom") for fmt in ("text", "smtlib", "json")
)

LAYERS = [
    Layer("ratlp.max_positive_support", "mutreach.ratlp", "max_positive_support",
          observe=_full_support),
    Layer("ratlp.positive_circulation", "mutreach.ratlp", "positive_circulation"),
    # Only the calls the bottom evaluator makes; the LP helpers call it too.
    Layer("ratlp.solve_standard", "mutreach.ratlp", "solve_standard",
          callers=("mutreach.presburger",)),
    Layer("unfolding.enumerate_unfoldings", "mutreach.unfolding", "enumerate_unfoldings"),
    Layer("unfolding.lattice_of_unfolding", "mutreach.unfolding", "lattice_of_unfolding"),
    Layer("unfolding.elementary_path", "mutreach.unfolding", "elementary_path"),
    Layer("lattice.representation_from_generators", "mutreach.lattice",
          "representation_from_generators"),
    Layer("lattice.lattice_contains", "mutreach.lattice", "lattice_contains"),
    Layer("intlinalg.hermite_normal_form", "mutreach.intlinalg", "hermite_normal_form"),
    Layer("intlinalg.kernel_basis", "mutreach.intlinalg", "kernel_basis"),
    Layer("witness.upward_basis", "mutreach.witness", "upward_basis", observe=_truncated),
    Layer("witness.search_witness", "mutreach.witness", "search_witness", observe=_examined),
    Layer("witness.check_witness", "mutreach.witness", "check_witness", observe=_accepted),
    Layer("witness.synthesize_path", "mutreach.witness", "synthesize_path"),
    Layer("steinitz.prefix_safe_reorder", "mutreach.steinitz", "prefix_safe_reorder"),
    Layer("presburger.compile_mutual", "mutreach.presburger", "compile_mutual",
          observe=_disjuncts),
    Layer("presburger.compile_bottom", "mutreach.presburger", "compile_bottom",
          observe=_tuples),
    *[Layer(f"presburger.{name}", "mutreach.presburger", name, observe=_text_bytes)
      for name in SERIALIZERS],
    Layer("presburger.mutual_from_text", "mutreach.presburger", "mutual_from_text"),
    Layer("presburger.eval_mutual", "mutreach.presburger", "eval_mutual", observe=_hit_miss),
    Layer("presburger.eval_bottom", "mutreach.presburger", "eval_bottom"),
    Layer("presburger.lattice_basis", "mutreach.presburger", "lattice_basis"),
    Layer("presburger.lattice_box_feasible", "mutreach.presburger", "lattice_box_feasible",
          observe=_box_query),
    Layer("net.load_net", "mutreach.net", "load_net"),
    Layer("oracle.BoundedStateSpace", "mutreach.oracle", "BoundedStateSpace.__init__"),
]


@dataclass
class TraceResult:
    """What a traced run hands to the metric extractors."""

    stats: dict  # layer name -> LayerStats | None
    measured_calls: dict  # layer name -> calls made during the traced operations
    ops: int  # traced operations
    overhead_s: float
    verdicts: dict  # verdict quality from the accounting, see workloads.Outcome
    time_scale: float  # raw seconds -> reference seconds, see speed.py


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer(name: str, fn: Callable[[LayerStats, TraceResult], float]):
    def extract(tr: TraceResult):
        st = tr.stats.get(name)
        return None if st is None else fn(st, tr)

    return extract


def _calls(name):
    return _layer(name, lambda st, tr: st.calls)


def _secs(name):
    return _layer(name, lambda st, tr: st.s * tr.time_scale)


def _self(name):
    return _layer(name, lambda st, tr: st.self_s * tr.time_scale)


def _counter(name, key):
    return _layer(name, lambda st, tr: st.counters.get(key, 0))


def _per_op(name):
    return _layer(name, lambda st, tr: _share(tr.measured_calls.get(name, 0), tr.ops))


def _mean_us(name, key):
    return _layer(name, lambda st, tr: 1e6 * tr.time_scale * _share(
        st.counters.get(key + "_s", 0.0), st.counters.get(key, 0)))


def _ratio(name, key):
    return _layer(name, lambda st, tr: _share(st.counters.get(key, 0), st.calls))


def _verdict(key):
    return lambda tr: tr.verdicts.get(key, 0.0)


# (metric, unit, better, extractor).  Comments give the end-to-end metric
# and workload each group should move.
PER_LAYER = [
    # p50_ms and ops_per_s on compile-scaled and certify
    ("ratlp.max_positive_support.calls", "count", "lower", _calls("ratlp.max_positive_support")),
    ("ratlp.max_positive_support.s", "s", "lower", _secs("ratlp.max_positive_support")),
    ("ratlp.max_positive_support.full_support_share", "share", "lower",
     _ratio("ratlp.max_positive_support", "full")),
    ("unfolding.enumerate_unfoldings.yields", "count", "lower",
     _layer("unfolding.enumerate_unfoldings", lambda st, tr: st.yields)),
    ("unfolding.enumerate_unfoldings.self_s", "s", "lower",
     _self("unfolding.enumerate_unfoldings")),
    ("witness.upward_basis.calls", "count", "lower", _calls("witness.upward_basis")),
    ("witness.upward_basis.s", "s", "lower", _secs("witness.upward_basis")),
    ("witness.upward_basis.truncated", "count", "lower",
     _counter("witness.upward_basis", "truncated")),
    # p50_ms on compile-scaled
    ("unfolding.lattice_of_unfolding.calls", "count", "lower",
     _calls("unfolding.lattice_of_unfolding")),
    ("unfolding.lattice_of_unfolding.s", "s", "lower", _secs("unfolding.lattice_of_unfolding")),
    ("unfolding.elementary_path.calls", "count", "lower", _calls("unfolding.elementary_path")),
    ("unfolding.elementary_path.s", "s", "lower", _secs("unfolding.elementary_path")),
    ("lattice.representation_from_generators.calls", "count", "lower",
     _calls("lattice.representation_from_generators")),
    ("lattice.representation_from_generators.s", "s", "lower",
     _secs("lattice.representation_from_generators")),
    ("presburger.compile_mutual.self_s", "s", "lower", _self("presburger.compile_mutual")),
    ("presburger.compile_mutual.disjuncts", "count", "lower",
     _counter("presburger.compile_mutual", "disjuncts")),
    *[row for name in SERIALIZERS for row in (
        (f"presburger.{name}.s", "s", "lower", _secs(f"presburger.{name}")),
        (f"presburger.{name}.bytes", "bytes", "lower", _counter(f"presburger.{name}", "bytes")),
    )],
    # p50_ms and tail_ms on certify
    ("witness.search_witness.examined_per_pair", "count", "lower",
     _layer("witness.search_witness",
            lambda st, tr: _share(st.counters.get("examined", 0), st.calls))),
    ("witness.search_witness.found_share", "share", "higher", _verdict("found_share")),
    ("witness.check_witness.calls", "count", "lower", _calls("witness.check_witness")),
    ("witness.check_witness.accepted_share", "share", "higher",
     _ratio("witness.check_witness", "accepted")),
    ("witness.synthesize_path.calls", "count", "lower", _calls("witness.synthesize_path")),
    ("witness.synthesize_path.s", "s", "lower", _secs("witness.synthesize_path")),
    ("steinitz.prefix_safe_reorder.calls", "count", "lower",
     _calls("steinitz.prefix_safe_reorder")),
    ("steinitz.prefix_safe_reorder.s", "s", "lower", _secs("steinitz.prefix_safe_reorder")),
    # ops_per_s, p50_ms and tail_ms on query
    ("presburger.mutual_from_text.s", "s", "lower", _secs("presburger.mutual_from_text")),
    ("presburger.eval_mutual.hit_us", "us", "lower", _mean_us("presburger.eval_mutual", "hit")),
    ("presburger.eval_mutual.miss_us", "us", "lower", _mean_us("presburger.eval_mutual", "miss")),
    ("presburger.eval_mutual.recall", "share", "higher", _verdict("mutual_recall")),
    ("lattice.lattice_contains.calls_per_pair", "count", "lower",
     _per_op("lattice.lattice_contains")),
    # ops_per_s, p50_ms and tail_ms on bottom-rank2
    ("presburger.eval_bottom.calls", "count", "lower", _calls("presburger.eval_bottom")),
    ("presburger.eval_bottom.s", "s", "lower", _secs("presburger.eval_bottom")),
    ("presburger.eval_bottom.recall", "share", "higher", _verdict("bottom_recall")),
    ("presburger.eval_bottom.undecided_share", "share", "lower", _verdict("undecided_share")),
    ("presburger.lattice_basis.calls_per_point", "count", "lower",
     _per_op("presburger.lattice_basis")),
    ("presburger.lattice_basis.s", "s", "lower", _secs("presburger.lattice_basis")),
    ("presburger.lattice_box_feasible.calls", "count", "lower",
     _calls("presburger.lattice_box_feasible")),
    ("presburger.lattice_box_feasible.s", "s", "lower", _secs("presburger.lattice_box_feasible")),
    ("presburger.lattice_box_feasible.rank2_share", "share", "higher",
     _ratio("presburger.lattice_box_feasible", "rank2")),
    ("presburger.lattice_box_feasible.undecided", "count", "lower",
     _counter("presburger.lattice_box_feasible", "undecided")),
    ("ratlp.solve_standard.calls", "count", "lower", _calls("ratlp.solve_standard")),
    ("ratlp.solve_standard.s", "s", "lower", _secs("ratlp.solve_standard")),
    ("intlinalg.hermite_normal_form.calls", "count", "lower",
     _calls("intlinalg.hermite_normal_form")),
    ("intlinalg.hermite_normal_form.s", "s", "lower", _secs("intlinalg.hermite_normal_form")),
    ("intlinalg.kernel_basis.calls", "count", "lower", _calls("intlinalg.kernel_basis")),
    ("intlinalg.kernel_basis.s", "s", "lower", _secs("intlinalg.kernel_basis")),
    # setup_s on bottom-rank2 (and query); p50_ms on compile-scaled
    ("ratlp.positive_circulation.calls", "count", "lower", _calls("ratlp.positive_circulation")),
    ("ratlp.positive_circulation.s", "s", "lower", _secs("ratlp.positive_circulation")),
    ("presburger.compile_bottom.s", "s", "lower", _secs("presburger.compile_bottom")),
    ("presburger.compile_bottom.tuples", "count", "lower",
     _counter("presburger.compile_bottom", "tuples")),
    ("net.load_net.s", "s", "lower", _secs("net.load_net")),
    # the reference, not the program: moves nothing
    ("oracle.BoundedStateSpace.build_s", "s", "lower", _secs("oracle.BoundedStateSpace")),
    ("trace.overhead_s", "s", "lower", lambda tr: tr.overhead_s),
]


def per_layer_metrics(tr: TraceResult) -> dict:
    return {name: {"value": fn(tr), "unit": unit} for name, unit, _, fn in PER_LAYER}
