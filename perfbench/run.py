"""mutreach benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The process imports mutreach from ``src/`` of the checkout it sits in,
runs the workload's set-up several times (each from a fresh import),
measures for ``--seconds`` seconds, checks every output against a
reference that is not the code under test, and prints one JSON object
as its last line.  With ``--trace 0`` that object carries the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  The
line before it holds details: the workload's metrics under their
per-workload names (compile_s, query_pairs_per_s, bottom_recall, ...),
the tail percentile with its sample count, the machine-speed probe and,
for compile-scaled, artifact digests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
from perfbench.layers import LAYERS, TraceResult, per_layer_metrics  # noqa: E402
from perfbench.speed import SpeedSampler, burst_ms  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Record  # noqa: E402

SETUP_REPS = 5
TAIL_LADDER = (99, 95, 90, 75, 50)
MODULES = ("cli", "net", "oracle", "presburger", "unfolding", "witness")


def fresh_import() -> SimpleNamespace:
    """Import mutreach from scratch, so that set-up pays for import-time work."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "mutreach" or n.startswith("mutreach.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("mutreach")
    return SimpleNamespace(**{n: importlib.import_module(f"mutreach.{n}") for n in MODULES})


def tail(samples: list[float], pass_len: int) -> tuple[int, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it, by nearest rank.  The percentile is chosen for
    one pass over the workload's inputs (or fewer samples, if fewer ran),
    so it does not move with the machine's speed; compile-scaled, a pass
    of one compile, reports its median."""
    xs = sorted(samples)
    n = min(len(xs), pass_len)
    for p in TAIL_LADDER:
        if n - 1 - (-(-p * n // 100) - 1) >= 10:
            return p, xs[-(-p * len(xs) // 100) - 1]
    return 50, statistics.median(xs)


def measure(w, items, sampler, seconds=None, limit=None):
    """Closed loop over the items, cycling, until `seconds` of wall time
    have passed and at least `w.min_ops` operations ran, or exactly
    `limit` operations.  A workload with `whole_pass` stops only after
    whole passes over the items.  Returns the records, with each
    operation's time in reference seconds, and the busy time (begin()
    plus operations)."""
    step = len(items) if w.whole_pass else 1
    clock = time.perf_counter
    t0 = clock()
    w.begin()
    spans = [(t0, clock())]
    records = []
    while limit is None or len(records) < limit:
        rec = Record(items[len(records) % len(items)])
        t0 = clock()
        try:
            rec.output = w.op(rec.item)
        except Exception as exc:  # a failed operation is counted, not fatal
            rec.error = f"{type(exc).__name__}: {exc}"
        spans.append((t0, clock()))
        w.after_op(rec)
        records.append(rec)
        if (limit is None and len(records) >= w.min_ops and len(records) % step == 0
                and clock() - spans[0][0] >= seconds):
            break
    times = [sampler.normalised(a, b) for a, b in spans]
    for rec, t in zip(records, times[1:]):
        rec.seconds = t
    return records, sum(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    cls = WORKLOADS[name]
    workdir = ROOT / ".perfbench" / f"{name}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    sampler = SpeedSampler()
    tracer = Tracer(LAYERS, clock=sampler.clock) if trace else None
    probe_start = burst_ms()
    clock = time.perf_counter
    try:
        sampler.start()
        setup_times = []
        for rep in range(SETUP_REPS):
            w = cls(workdir)
            t0 = clock()
            m = fresh_import()
            t1 = clock()
            traced_rep = tracer is not None and rep == SETUP_REPS - 1
            if traced_rep:
                tracer.install()
            t2 = clock()
            try:
                w.setup(m)
            finally:
                t3 = clock()
                if traced_rep:
                    tracer.uninstall()
            setup_times.append(sampler.normalised(t0, t1) + sampler.normalised(t2, t3))

        if tracer is not None:
            tracer.install()
        try:
            w.prepare()
        finally:
            if tracer is not None:
                tracer.uninstall()
        items = w.stream(seed)

        if tracer is None:
            records, busy = measure(w, items, sampler, seconds)
        else:
            # A fixed amount of work, so that layer totals compare across runs.
            ops = w.trace_ops or len(items)
            untraced, busy_plain = measure(w, items, sampler, limit=ops)
            before = {k: (st.calls if st else 0) for k, st in tracer.stats.items()}
            t0 = clock()
            with tracer:
                traced, busy_traced = measure(w, items, sampler, limit=ops)
            time_scale = speed.REF_MS / sampler.kernel_ms(t0, clock(), pad=0)
            measured_calls = {
                k: (st.calls if st else 0) - before.get(k, 0) for k, st in tracer.stats.items()
            }
            records, busy = untraced + traced, busy_plain + busy_traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcome = w.account(records, seed)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    probe_end = burst_ms()

    latencies = [r.seconds for r in records]
    pct, tail_s = tail(latencies, len(items))
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1 - outcome.failed / outcome.attempted, "share"),
        "ops_per_s": (len(records) / busy, "1/s"),
        "p50_ms": (1000 * statistics.median(latencies), "ms"),
        "tail_ms": (1000 * tail_s, "ms"),
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops": len(records),
        "tail_percentile": pct,
        "tail_samples": len(latencies),
        "setup_s_each": setup_times,
        "probe_ms": {
            "start": probe_start,
            "end": probe_end,
            "sampled_mean": 1000 * statistics.fmean(
                e - s for s, e in zip(sampler.starts, sampler.ends)),
            "samples": len(sampler.starts),
            "reference": speed.REF_MS,
        },
        "named_metrics": named_metrics(name, e2e, outcome),
        **outcome.details,
        "errors": sorted({r.error for r in records if r.error})[:5],
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        metrics = per_layer_metrics(TraceResult(
            stats=tracer.stats,
            measured_calls=measured_calls,
            ops=len(traced),
            overhead_s=busy_traced - busy_plain,
            verdicts=outcome.details,
            time_scale=time_scale,
        ))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, details


def named_metrics(name: str, e2e: dict, outcome) -> dict:
    """The end-to-end metrics under their per-workload names."""
    out = {
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "error_share": (outcome.failed / outcome.attempted, "share"),
    }
    p50_s, tail_ms, rate = e2e["p50_ms"][0] / 1000, e2e["tail_ms"][0], e2e["ops_per_s"][0]
    v = outcome.details
    if name == "compile-scaled":
        out["compile_s"] = (p50_s, "s")
        out["formula_disjuncts"] = (v["formula_disjuncts"], "count")
        out["mutual_recall"] = (v["mutual_recall"], "share")
    elif name == "query":
        out["query_pairs_per_s"] = (rate, "1/s")
        out["query_tail_ms"] = (tail_ms, "ms")
        out["mutual_recall"] = (v["mutual_recall"], "share")
    elif name == "certify":
        out["certify_p50_s"] = (p50_s, "s")
        out["certify_tail_s"] = (tail_ms / 1000, "s")
        out["certify_found_share"] = (v["found_share"], "share")
    elif name == "bottom-rank2":
        out["bottom_points_per_s"] = (rate, "1/s")
        out["bottom_tail_ms"] = (tail_ms, "ms")
        out["bottom_recall"] = (v["bottom_recall"], "share")
        out["undecided_share"] = (v["undecided_share"], "share")
    return {k: {"value": val, "unit": unit} for k, (val, unit) in out.items()}


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, details_line, result_line = proc.stdout.strip().splitlines()
        result, details = json.loads(result_line), json.loads(details_line)["details"]
        for metric, entry in details["named_metrics"].items():
            print(f"{name:15s} {metric:22s} {entry['value']:.6g} {entry['unit']}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mutreach" / "__init__.py").is_file():
        print(f"error: no mutreach sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
