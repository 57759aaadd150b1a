"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/paired_bench.py --parent <base commit> --out BENCH_n.json \\
        --change "what the change does"

Both trees are exported with `git archive`: the parent revision as
committed, and the working tree through a temporary index, so files
that are new but not ignored are part of it and the real index is left
alone.  A parent with the working tree's own files is refused: there
would be nothing to compare.  Every workload in BENCHMARK.json runs on
seeds 1-10 for BENCHMARK.json's `run_seconds`.  Each run extracts its
tree into a fresh directory and runs that tree's own, unmodified
`perfbench/run.py --trace 0` there with PYTHONDONTWRITEBYTECODE=1, so no
run reads or writes a bytecode cache.  The change runs first on odd
seeds and the parent on even seeds.

The JSON written holds every run and, per workload, each side's median
and quartiles (statistics.quantiles(n=4, method='inclusive'), first and
third) of every end-to-end metric in BENCHMARK.json, the pairs the
change won (ties count for neither side), the change's median relative
to the parent's, and the metrics whose median is worse by more than
their bound.  It is rewritten after every pair, so a cut run keeps what
it measured.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = range(1, 11)


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=REPO, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def working_tree(index: Path) -> str:
    """The working tree's tree id, written through the temporary index
    `index`."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def export(tree: str, dest: Path) -> Path:
    """A tar of `tree`."""
    git("archive", "--format=tar", "-o", str(dest), tree)
    return dest


def run_once(tar: Path, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """One benchmark run from a fresh copy of the tree in `tar`: its
    result line, `{"correct", "attempted", "failed", "metrics"}`."""
    tree = Path(tempfile.mkdtemp(dir=workdir))
    try:
        with tarfile.open(tar) as archive:
            archive.extractall(tree)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=env, check=True, capture_output=True, text=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def pair_record(seed: int, first: str, results: dict) -> dict:
    """One pair's entry in `runs` from the two result lines."""
    record = {"seed": seed, "first": first}
    for key in ("correct", "attempted", "failed"):
        record[key] = {side: results[side][key] for side in SIDES}
    for side in SIDES:
        record[side] = {name: m["value"] for name, m in results[side]["metrics"].items()}
    return record


def _better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's summary of its pairs, each a `pair_record`."""
    summary = {"seeds": [r["seed"] for r in runs]}
    medians = {side: {} for side in SIDES}
    for side in SIDES:
        for metric in end_to_end:
            medians[side][metric["name"]] = statistics.median(r[side][metric["name"]] for r in runs)
    summary["parent_median"] = {k: round(v, 4) for k, v in medians["parent"].items()}
    summary["change_median"] = {k: round(v, 4) for k, v in medians["change"].items()}
    summary["change_better_pairs"] = {
        m["name"]: f"{sum(_better(m, r['change'][m['name']], r['parent'][m['name']]) for r in runs)}/{len(runs)}"
        for m in end_to_end
    }
    summary["quartiles"] = {
        m["name"]: {side: _quartiles([r[side][m["name"]] for r in runs]) for side in SIDES}
        for m in end_to_end
    }
    summary["median_change"] = {}
    summary["worse_than_bound"] = []
    for m in end_to_end:
        parent, change = medians["parent"][m["name"]], medians["change"][m["name"]]
        relative = (change - parent) / parent if parent else 0.0
        summary["median_change"][m["name"]] = round(relative, 4)
        worse = relative if m["better"] == "lower" else -relative
        if worse > m["bound"]:
            summary["worse_than_bound"].append(m["name"])
    summary["runs"] = runs
    return summary


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent = git("rev-parse", "--short", args.parent)
    report = {
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0, "
                   "every run from a fresh copy of its tree in a new directory, with "
                   "PYTHONDONTWRITEBYTECODE=1, so no run of either tree read or wrote a bytecode "
                   f"cache; parent {parent}, written by tools/paired_bench.py",
        "machine": f"Python {platform.python_version()}, {os.cpu_count()} cores, {platform.system()}",
        "run_seconds": seconds,
        "order": "alternating on every workload: change first on odd seeds, parent first on "
                 "even seeds (each run's `first` names it)",
        "quartiles": "statistics.quantiles(n=4, method='inclusive'), first and third",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        workdir = Path(tmp)
        trees = {"parent": git("rev-parse", f"{args.parent}^{{tree}}"),
                 "change": working_tree(workdir / "change.index")}
        if trees["parent"] == trees["change"]:
            parser.error(f"{args.parent} has the working tree's own files: nothing to compare")
        tars = {side: export(tree, workdir / f"{side}.tar") for side, tree in trees.items()}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for seed in SEEDS:
                first = "change" if seed % 2 else "parent"
                order = (first, *[s for s in SIDES if s != first])
                results = {side: run_once(tars[side], workload, seed, seconds, workdir) for side in order}
                runs.append(pair_record(seed, first, results))
                report["workloads"][workload] = summarize(runs, bench["end_to_end"])
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                p50 = {side: results[side]["metrics"]["p50_ms"]["value"] for side in SIDES}
                print(f"{workload} seed {seed}: p50_ms parent {p50['parent']:.4g} "
                      f"change {p50['change']:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
