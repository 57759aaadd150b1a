"""The four benchmark workloads.

Each workload has a set-up (timed, repeated by the runner), a reference
built from code that is not the code under test, a seeded input stream,
one operation per input (timed), and an accounting step that checks
every output against the reference.  The library sees only the
generated inputs.

Every call into mutreach goes through a module attribute looked up at
call time (``self.m.presburger.eval_mutual``), so the tracer's wrappers
are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
RING3 = Path(__file__).resolve().parent / "nets" / "ring3.net"


class SetupError(RuntimeError):
    pass


@dataclass
class Record:
    item: object
    output: object = None
    error: str | None = None
    seconds: float = 0.0


@dataclass
class Outcome:
    attempted: int
    failed: int
    details: dict  # verdict quality (recall and the like), printed and traced


def replay(net, x, word):
    """Fire `word` from `x` action by action; None if some step is blocked.

    Written here rather than taken from mutreach.net so that the check
    does not rest on the code it checks.
    """
    c = list(x)
    for idx in word:
        a = net.actions[idx]
        if any(c[i] < a.pre[i] for i in range(len(c))):
            return None
        c = [c[i] - a.pre[i] + a.post[i] for i in range(len(c))]
    return tuple(c)


def _quiet(fn, *args):
    """Run fn with its standard output captured; the last line of the
    benchmark's own output must stay its JSON result."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _box(dim: int, hi: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(hi + 1), repeat=dim))


def _mixed3_oracle(m, net, hi: int):
    """mixed3 keeps x0 + x1 and never raises x2, so this box holds every
    configuration reachable from [0,hi]^3 and the oracle decides all of it."""
    return m.oracle.BoundedStateSpace(net, (2 * hi, 2 * hi, hi))


class Workload:
    name = ""
    min_ops = 1  # operations every measured phase completes, whatever --seconds says
    whole_pass = False  # measured phases end only after whole passes over the stream
    trace_ops = 0  # operations a traced run measures, twice; 0 means one pass

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.m = None

    def setup(self, m) -> None:
        """Timed set-up, given freshly imported mutreach modules."""
        self.m = m

    def prepare(self) -> None:
        """Untimed: build the reference."""

    def stream(self, seed: int) -> list:
        raise NotImplementedError

    def begin(self) -> None:
        """Timed start of a measured phase."""

    def op(self, item):
        raise NotImplementedError

    def after_op(self, record: Record) -> None:
        """Untimed bookkeeping right after an operation."""

    def account(self, records: list[Record], seed: int) -> Outcome:
        raise NotImplementedError


class CompileScaled(Workload):
    """`mutreach compile fixtures/mixed3.net --state-bound 5`, mutual mode
    with all three formats, then bottom mode, through the CLI entry point."""

    name = "compile-scaled"
    min_ops = 5  # a median of fewer compiles moves with the machine
    trace_ops = 2
    BOX = 4  # soundness and recall are checked on [0,4]^3
    SOUNDNESS_SAMPLE = 300

    def setup(self, m) -> None:
        super().setup(m)
        self.net_path = str(FIXTURES / "mixed3.net")
        self.net = m.net.load_net(self.net_path)
        self.base_m = str(self.workdir / "mixed3-sb5")
        self.base_b = str(self.workdir / "mixed3-sb5-bottom")
        self.artifacts = {}  # digest tuple -> (mrf text, btf text)
        self.digests = []

    def prepare(self) -> None:
        self.oracle = _mixed3_oracle(self.m, self.net, self.BOX)

    def stream(self, seed: int) -> list:
        return [None]

    def op(self, item):
        cli = self.m.cli
        return (
            _quiet(cli.main, ["compile", self.net_path, "--state-bound", "5",
                              "--out", self.base_m]),
            _quiet(cli.main, ["compile", self.net_path, "--mode", "bottom", "--state-bound", "5",
                              "--out", self.base_b]),
        )

    def _files(self):
        return [self.base_m + s for s in (".mrf", ".smt2", ".json")] + [
            self.base_b + s for s in (".btf", ".smt2", ".json")
        ]

    def after_op(self, record: Record) -> None:
        if record.error is not None:
            return
        entry = {}
        for path in self._files():
            data = Path(path).read_bytes()
            entry[Path(path).name] = {
                "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        key = tuple(sorted((k, v["sha256"]) for k, v in entry.items()))
        if key not in self.artifacts:
            self.artifacts[key] = (
                Path(self.base_m + ".mrf").read_text(encoding="utf-8"),
                Path(self.base_b + ".btf").read_text(encoding="utf-8"),
            )
        record.output = (record.output, key)
        self.digests.append(entry)

    def _check(self, mrf: str, btf: str, seed: int) -> dict:
        pz = self.m.presburger
        mutual = pz.mutual_from_text(mrf)
        bottom = pz.bottom_from_text(btf)
        pts = _box(3, self.BOX)
        positives = hits = unsound = 0
        negatives = []
        for x in pts:
            for y in pts:
                truth = self.oracle.mutual(x, y)
                if truth:
                    positives += 1
                    hits += pz.eval_mutual(mutual, x, y) is True
                elif truth is False:
                    negatives.append((x, y))
        rng = random.Random(seed)
        for x, y in rng.sample(negatives, min(self.SOUNDNESS_SAMPLE, len(negatives))):
            unsound += pz.eval_mutual(mutual, x, y) is True
        bottom_unsound = sum(
            1 for c in pts if self.oracle.bottom(c) is False and pz.eval_bottom(bottom, c) is True
        )
        return {
            "sound": unsound == 0 and bottom_unsound == 0,
            "mutual_recall": hits / positives,
            "formula_disjuncts": len(mutual.disjuncts),
            "complete": mutual.complete and bottom.complete,
        }

    def account(self, records: list[Record], seed: int) -> Outcome:
        checks = {key: self._check(mrf, btf, seed) for key, (mrf, btf) in self.artifacts.items()}
        failed = 0
        for r in records:
            if r.error is not None:
                failed += 1
                continue
            codes, key = r.output
            if codes != (0, 0) or not checks[key]["sound"]:
                failed += 1
        first = next(iter(checks.values()), {})
        distinct = {tuple(sorted((k, v["sha256"]) for k, v in d.items())) for d in self.digests}
        return Outcome(
            attempted=len(records),
            failed=failed,
            details={
                "mutual_recall": first.get("mutual_recall"),
                "formula_disjuncts": first.get("formula_disjuncts"),
                "complete": first.get("complete"),
                "artifacts": self.digests[0] if self.digests else {},
                "artifacts_identical_across_ops": len(distinct) <= 1,
            },
        )


class Query(Workload):
    """Parse the default-bound mixed3 formula, then answer a seeded
    stream of pairs in [0,3]^3 with eval_mutual."""

    name = "query"
    BOX = 3
    trace_ops = 2000

    def setup(self, m) -> None:
        super().setup(m)
        self.net = m.net.load_net(str(FIXTURES / "mixed3.net"))
        base = str(self.workdir / "mixed3")
        code = _quiet(m.cli.main, ["compile", str(FIXTURES / "mixed3.net"), "--formats", "text",
                                   "--out", base])
        if code != 0:
            raise SetupError(f"compile exited {code}")
        self.mrf = Path(base + ".mrf")

    def prepare(self) -> None:
        self.oracle = _mixed3_oracle(self.m, self.net, self.BOX)

    def stream(self, seed: int) -> list:
        """One pass: every oracle-decided pair of [0,3]^3 that is not
        mutual, once, and as many slots again dealt round-robin over the
        mutual pairs, so half the pairs share a component; in seeded order.
        Every seed sees the same pairs, so the tail does not depend on
        how many slow pairs a seed happened to draw."""
        rng = random.Random(seed)
        pts = _box(3, self.BOX)
        mutual, other = [], []
        for x in pts:
            for y in pts:
                truth = self.oracle.mutual(x, y)
                if truth is not None:
                    (mutual if truth else other).append((x, y))
        rng.shuffle(mutual)
        out = other + [mutual[i % len(mutual)] for i in range(len(other))]
        rng.shuffle(out)
        return out

    def begin(self) -> None:
        self.formula = self.m.presburger.mutual_from_text(self.mrf.read_text(encoding="utf-8"))

    def op(self, item):
        return self.m.presburger.eval_mutual(self.formula, *item)

    def account(self, records: list[Record], seed: int) -> Outcome:
        failed = positives = hits = 0
        for r in records:
            truth = self.oracle.mutual(*r.item)
            if r.error is not None or r.output not in (True, False, None):
                failed += 1
            elif r.output is True and truth is False:
                failed += 1  # unsound accept
            if truth:
                positives += 1
                hits += r.output is True
        recall = hits / positives if positives else 0.0
        return Outcome(len(records), failed, {"mutual_recall": recall, "positives": positives})


class Certify(Workload):
    """What `check-mutual --synthesize` does for each seeded pair:
    search_witness, then synthesize_path in both directions."""

    name = "certify"
    NETS = ("token_swap", "ring")
    BOX = 3
    whole_pass = True  # every run sees each pair equally often

    def setup(self, m) -> None:
        super().setup(m)
        self.nets = {n: m.net.load_net(str(FIXTURES / f"{n}.net")) for n in self.NETS}
        self.params = m.witness.PumpingParams(state_bound=4, cycle_len=4)
        self.limits = m.unfolding.EnumLimits()

    def prepare(self) -> None:
        self.oracles = {n: self.m.oracle.BoundedStateSpace(net, 2 * self.BOX + 2)
                        for n, net in self.nets.items()}

    def stream(self, seed: int) -> list:
        """One pass: every mutual pair of [0,3]^2 for each net, with a
        seeded orientation, plus half as many seeded non-mutual pairs, so
        about two thirds are mutual and every pass has the same answers."""
        rng = random.Random(seed)
        out = []
        for n in self.NETS:
            oracle = self.oracles[n]
            pts = _box(2, self.BOX)
            mutual, other = [], []
            for x, y in itertools.combinations(pts, 2):
                truth = oracle.mutual(x, y)
                if truth is not None:
                    (mutual if truth else other).append((x, y) if rng.random() < 0.5 else (y, x))
            out += [(n, x, y) for x, y in mutual]
            out += [(n, x, y) for x, y in rng.sample(other, (len(mutual) + 1) // 2)]
        rng.shuffle(out)
        return out

    def op(self, item):
        n, x, y = item
        net = self.nets[n]
        wm = self.m.witness
        result = wm.search_witness(net, x, y, self.params, budget=10000, limits=self.limits)
        words = None
        if result.status == "found":
            w = result.witness
            words = (wm.synthesize_path(net, x, y, w), wm.synthesize_path(net, y, x, w))
        return result.status, words

    def account(self, records: list[Record], seed: int) -> Outcome:
        failed = undecided = 0
        positives, found = set(), set()
        for r in records:
            n, x, y = r.item
            truth = self.oracles[n].mutual(x, y)
            if truth:
                positives.add(r.item)
            if r.error is not None:
                failed += 1
                continue
            status, words = r.output
            if status == "found":
                net = self.nets[n]
                if truth is False or replay(net, x, words[0]) != y or replay(net, y, words[1]) != x:
                    failed += 1
                    continue
                found.add(r.item)
            elif status != "not-found-exhausted":
                undecided += 1
        share = len(found & positives) / len(positives) if positives else 0.0
        return Outcome(len(records), failed, {"found_share": share, "mutual_pairs": len(positives),
                                              "budget_exhausted": undecided})


class BottomRank2(Workload):
    """eval_bottom on ring3 at seeded points above the exact pumping
    threshold, where the only matching tuple has a rank-2 lattice."""

    name = "bottom-rank2"
    PASS = 400
    SPAN = 256

    def setup(self, m) -> None:
        super().setup(m)
        self.net = m.net.load_net(str(RING3))
        params = m.witness.PumpingParams(state_bound=4, cycle_len=4)
        self.formula = m.presburger.compile_bottom(self.net, params, m.unfolding.EnumLimits())

    def low(self) -> int:
        """Smallest coordinate drawn: the exact pumping threshold
        m (3 d m)^d of a one-state unfolding, plus the cycle-length slack
        a basis vector may add, rounded up."""
        d, m = self.net.dim, self.net.norm
        return m * (3 * d * m) ** d + 32

    def stream(self, seed: int) -> list:
        rng = random.Random(seed)
        lo = self.low()
        return [tuple(rng.randrange(lo, lo + self.SPAN) for _ in range(3))
                for _ in range(self.PASS)]

    def op(self, item):
        return self.m.presburger.eval_bottom(self.formula, item)

    def account(self, records: list[Record], seed: int) -> Outcome:
        # ring3's known answer: every configuration is bottom.
        failed = accepted = undecided = 0
        for r in records:
            if r.error is not None or r.output not in (True, False, None):
                failed += 1
            elif r.output is True:
                accepted += 1
            elif r.output is None:
                undecided += 1
        n = len(records)
        return Outcome(n, failed, {"bottom_recall": accepted / n, "undecided_share": undecided / n})


WORKLOADS = {w.name: w for w in (CompileScaled, Query, Certify, BottomRank2)}
