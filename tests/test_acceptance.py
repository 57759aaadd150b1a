"""Acceptance criteria, one test per criterion.

Each test prints a single PASS or FAIL line with its measured runtime;
the stated runtime budgets are asserted.  Headline quantities are
checked at desk scale with exact arithmetic throughout.
"""

import functools
import itertools
import random
import time
from math import factorial

from conftest import (
    brute_force_small_set,
    candidate_unfoldings,
    definitional_reversible,
    displacement,
    enumerated_span_points,
    eval_bottom_by_enumeration,
    format_net,
    hurdle,
    span_oracle,
)
from mutreach.cli import main as cli_main
from extraction import (
    Execution,
    Extractor,
    maximal_small_set,
    minimal_m_adapted,
    power_dominates,
    rackoff_shorten,
    reference_extractor,
)
from mutreach.lattice import lattice_contains, representation_from_generators
from mutreach.net import Blocked, fire
from mutreach.oracle import BoundedStateSpace
from mutreach.presburger import compile_bottom, compile_mutual, eval_bottom, eval_mutual
from mutreach.steinitz import (
    check_prefix_bound,
    prefix_safe_reorder,
    prune_zero_subsequences,
)
from mutreach.unfolding import index_sets, is_structurally_reversible
from mutreach.vectors import norm_1, restrict, vsub
from mutreach.witness import PumpingParams, search_witness, synthesize_path


def criterion(number: int, budget: float):
    """Print one PASS/FAIL line per criterion and assert the runtime
    budget; the wrapped test returns its detail string."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = time.time() - started
                print(f"[criterion {number:2d}] FAIL in {elapsed:5.1f}s: {exc!r:.120}")
                raise
            elapsed = time.time() - started
            print(
                f"[criterion {number:2d}] PASS in {elapsed:5.1f}s "
                f"(budget {budget:.0f}s): {detail}"
            )
            assert elapsed < budget, f"criterion {number} exceeded its runtime budget"
        return run

    return wrap


@criterion(1, 30)
def test_criterion_01_lattice_representation_oracle_equivalence():
    """200 random generator sets: representation membership matches span
    membership on the test box, the bounded-coefficient enumeration is
    consistent, and the norm bound (d!)^2 m^d holds every time."""
    import numpy as np

    from conftest import representation_membership_mask, span_membership_mask

    rng = random.Random(101)
    escalations = 0
    spot_verified = 0
    for trial in range(200):
        d = rng.randint(1, 4)
        k = rng.randint(0, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        rep = representation_from_generators(gens, d)
        m = max((max(abs(c) for c in g) for g in gens if any(g)), default=1)
        norm = max(max(n, max(map(abs, a))) for n, a in rep.pairs)
        assert norm <= factorial(d) ** 2 * m**d
        oracle = span_oracle(gens, d)
        points = np.array(
            list(itertools.product(range(-6, 7), repeat=d)), dtype=np.int64
        )
        rep_mask = representation_membership_mask(rep, points)
        oracle_mask = span_membership_mask(oracle, points)
        assert (rep_mask == oracle_mask).all(), gens
        enumerated = enumerated_span_points(gens, d, coeff_bound=6, box_bound=6)
        members = {tuple(int(v) for v in p) for p in points[rep_mask]}
        assert enumerated <= members  # enumerated points are certainly in the span
        # points the coefficient box missed: justify each by an exact
        # witness over unbounded coefficients
        for x in members - enumerated:
            escalations += 1
            witness = oracle.witness(x)
            assert witness is not None
            for i in range(d):
                assert sum(z * g[i] for z, g in zip(witness, gens)) == x[i]
        # spot-check the vectorized verdicts against the scalar routines
        for x in [tuple(int(v) for v in points[i]) for i in (0, len(points) // 2, -1)]:
            assert lattice_contains(rep, x) == oracle.contains(x) == (x in members)
            spot_verified += 1
    return (
        f"200 generator sets, {escalations} justified escalations, "
        f"{spot_verified} scalar spot checks"
    )


@criterion(2, 5)
def test_criterion_02_hack_hurdle_equivalence():
    """500 random words: firing succeeds exactly above the hurdle, and
    hurdle/displacement norms stay below |word| * m."""
    from mutreach.net import Action

    rng = random.Random(102)
    for _ in range(500):
        d = rng.randint(1, 4)
        m = rng.randint(1, 3)
        length = rng.randint(0, 8)
        word = [
            Action(
                tuple(rng.randint(0, m) for _ in range(d)),
                tuple(rng.randint(0, m) for _ in range(d)),
            )
            for _ in range(length)
        ]
        h = hurdle(word, dim=d)
        delta = displacement(word, dim=d)
        assert max(h) <= length * m
        assert max(abs(v) for v in delta) <= max(length * m, 0)
        for _ in range(3):
            x = tuple(rng.randint(0, 5) for _ in range(d))
            expected = all(a >= b for a, b in zip(x, h))
            try:
                end = fire(x, word)
                assert expected
                assert end == tuple(a + b for a, b in zip(x, delta))
            except Blocked:
                assert not expected
    return ("500 words, firing iff above the hurdle")


@criterion(3, 60)
def test_criterion_03_structural_reversibility(fixture_nets):
    """Euler-flow verdict equals the bounded definitional search on
    unfoldings with at most 4 states generated from the fixture nets."""
    checked = 0
    for name in ("token_swap", "consumer", "ring", "mixed3"):
        net = fixture_nets[name]
        for index_set in index_sets(net.dim):
            candidates = candidate_unfoldings(
                net, index_set, 4, max_states=4, max_edges=12, cap=300
            )
            for g in candidates:
                flows = is_structurally_reversible(g)
                lp = flows is not None
                if lp:
                    budget = max(sum(flows.values()), 8)
                else:
                    budget = 24
                assert lp == definitional_reversible(g, budget, budget), (
                    name, g.index_set, g.states, g.transitions,
                )
                checked += 1
    assert checked >= 500, checked
    return (f"{checked} candidate unfoldings, verdicts agree")


@criterion(4, 60)
def test_criterion_04_steinitz_suite():
    """200 random bags: balanced-prefix bound, pruning size bound with
    exact sums, and prefix safety; brute force cross-validates k <= 7."""
    rng = random.Random(104)
    for trial in range(200):
        d = rng.randint(1, 3)
        k = rng.randint(1, 20)
        vecs = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        m = max((max(abs(x) for x in v) for v in vecs), default=0)
        total = tuple(sum(v[i] for v in vecs) for i in range(d))

        perm = prefix_safe_reorder(vecs)
        assert sorted(perm) == list(range(k))
        assert check_prefix_bound(vecs, perm)

        keep = prune_zero_subsequences(vecs)
        kept_total = tuple(sum(vecs[j][i] for j in keep) for i in range(d))
        assert kept_total == total
        assert len(keep) <= 2 * norm_1(total) * (3 * d * m) ** d

        prefix = tuple(0 for _ in range(d))
        for j in perm:
            prefix = tuple(a + b for a, b in zip(prefix, vecs[j]))
            assert all(prefix[i] >= min(total[i], 0) - m * d for i in range(d))

        if k <= 7:
            assert any(
                check_prefix_bound(vecs, p)
                for p in itertools.permutations(range(k))
            )
    return ("200 bags, all three bounds hold exactly")


@criterion(5, 5)
def test_criterion_05_extractor_correctness():
    """Fixpoint extraction equals the brute-force maximum on 300 random
    instances, and the published 2-d case table is reproduced."""
    rng = random.Random(105)
    for _ in range(300):
        d = rng.randint(1, 5)
        lam = Extractor(tuple(sorted(rng.randint(1, 16) for _ in range(d + 2))))
        idx = tuple(sorted(rng.sample(range(d), rng.randint(0, d))))
        configs = [
            tuple(rng.randint(0, 16) for _ in range(d)) for _ in range(rng.randint(1, 6))
        ]
        assert maximal_small_set(lam, idx, configs) == brute_force_small_set(lam, idx, configs)

    lam = Extractor((1, 2, 4, 8))
    for m in range(10):
        for n in range(10):
            got = maximal_small_set(lam, (0, 1), [(m, n)])
            if m < 4 and n < 4:
                assert got == (0, 1)
            elif (m >= 4 and n >= 2) or (m >= 2 and n >= 4):
                assert got == ()
            elif m < 2 and n >= 4:
                assert got == (0,)
            else:
                assert m >= 4 and n < 2 and got == (1,)
    return ("300 instances vs subset brute force; 2-d table verbatim")


@criterion(6, 60)
def test_criterion_06_rackoff_postconditions(fixture_nets):
    """100 random executions: the shortened word fires, respects the
    length cap, matches the target on the extracted coordinates, and
    keeps the rest above the stated floor."""
    rng = random.Random(106)
    nets = [fixture_nets[k] for k in ("token_swap", "ring", "mixed3", "consumer")]
    for trial in range(100):
        net = nets[trial % len(nets)]
        d = net.dim
        lam = minimal_m_adapted(d, max(net.norm, 1), base=rng.randint(1, 3))
        start = tuple(rng.randint(0, 6) for _ in range(d))
        cur, word = start, []
        for _ in range(rng.randint(0, 15)):
            options = [a for a in net.actions if all(c >= p for c, p in zip(cur, a.pre))]
            if not options:
                break
            a = rng.choice(options)
            word.append(a)
            cur = fire(cur, (a,))
        execution = Execution.from_word(start, tuple(word))
        res = rackoff_shorten(net, execution, lam)
        final = fire(execution.src, res.word)
        assert final == res.final
        assert len(res.word) <= d * lam[d] ** d
        idx = res.extracted
        assert restrict(final, idx) == restrict(execution.tgt, idx)
        floor = lam[len(idx) + 1] - net.norm * sum(lam[j] ** j for j in range(len(idx) + 1))
        for i in range(d):
            if i not in idx:
                assert final[i] >= floor
    return ("100 executions, all four postconditions")


FIXTURE_BOXES = {"token_swap": 4, "consumer": 5, "ring": 4, "mixed3": 3}


def _compiled(net):
    return compile_mutual(net, PumpingParams(state_bound=4, cycle_len=4))


@criterion(7, 300)
def test_criterion_07_formula_soundness(fixture_nets):
    """Compiled relations produce zero false positives against the
    oracle on every fixture box."""
    for name, net in fixture_nets.items():
        formula = _compiled(net)
        box = FIXTURE_BOXES[name]
        space = BoundedStateSpace(net, box + 2)
        pts = list(itertools.product(range(box + 1), repeat=net.dim))
        false_positives = 0
        for x in pts:
            for y in pts:
                if eval_mutual(formula, x, y):
                    verdict = space.mutual(x, y)
                    if verdict is False:
                        false_positives += 1
        assert false_positives == 0, name
    return ("four fixtures, zero false positives")


@criterion(8, 120)
def test_criterion_08_formula_completeness_fully_small(token_swap):
    """With every box component below the state bound, evaluation equals
    the oracle exactly."""
    formula = compile_mutual(token_swap, PumpingParams(state_bound=5, cycle_len=4))
    space = BoundedStateSpace(token_swap, 4)
    pts = list(itertools.product(range(5), repeat=2))
    compared = 0
    for x in pts:
        for y in pts:
            verdict = space.mutual(x, y)
            if verdict is None:
                continue
            assert eval_mutual(formula, x, y) == verdict, (x, y)
            compared += 1
    assert compared > 500
    return (f"token swap, {compared} decided pairs match exactly")


@criterion(9, 60)
def test_criterion_09_equivalence_relation(fixture_nets):
    """The compiled relation is an equivalence relation on each box."""
    boxes = {"token_swap": 3, "consumer": 4, "ring": 3, "mixed3": 2}
    for name, net in fixture_nets.items():
        formula = _compiled(net)
        pts = list(itertools.product(range(boxes[name] + 1), repeat=net.dim))
        rel = {
            (x, y): eval_mutual(formula, x, y) for x in pts for y in pts
        }
        for (x, y), v in rel.items():
            assert rel[(y, x)] == v
            if v:
                assert rel[(x, x)] and rel[(y, y)]
        for x in pts:
            for y in pts:
                if not rel[(x, y)]:
                    continue
                for z in pts:
                    if rel[(y, z)]:
                        assert rel[(x, z)], (x, y, z)
    return ("reflexive on covered, symmetric, transitive")


@criterion(10, 60)
def test_criterion_10_path_synthesis(fixture_nets):
    """Witness search plus synthesis produces firing words both ways."""
    cases = [
        ("token_swap", (2, 0), (0, 2)),
        ("token_swap", (3, 1), (0, 4)),
        ("ring", (2, 0), (1, 1)),
        ("ring", (0, 3), (2, 1)),
    ]
    params = PumpingParams(state_bound=5, cycle_len=4)
    for name, x, y in cases:
        net = fixture_nets[name]
        res = search_witness(net, x, y, params)
        assert res.status == "found", (name, x, y)
        for src, dst in ((x, y), (y, x)):
            word = synthesize_path(net, src, dst, res.witness)
            assert fire(src, net.word(word)) == dst
            assert displacement(net.word(word), dim=net.dim) == vsub(dst, src)
    return (f"{len(cases)} witnesses synthesized both ways")


@criterion(11, 120)
def test_criterion_11_bottom_formula_vs_oracle(fixture_nets):
    """Bottom membership agrees with the oracle on all reliable
    configurations, and so does evaluation by lattice-point enumeration
    wherever it decides."""
    setups = {
        "token_swap": (5, 2),
        "consumer": (5, 4),
        "ring": (5, 2),
        "mixed3": (5, 2),
    }
    for name, net in fixture_nets.items():
        bound, box = setups[name]
        formula = compile_bottom(net, PumpingParams(state_bound=bound, cycle_len=4))
        space = BoundedStateSpace(net, box + 2)
        for c in itertools.product(range(box + 1), repeat=net.dim):
            want = space.bottom(c)
            if want is None:
                continue
            got = eval_bottom(formula, c)
            assert got == want, (name, c, got, want)
            enum = eval_bottom_by_enumeration(formula, c, radius=6)
            if enum is not None:
                assert enum == got
    return ("four fixtures, reliable verdicts all match")


@criterion(12, 5)
def test_criterion_12_bound_arithmetic():
    """The canonical ladder is m-adapted and its top threshold stays
    below (3dm)^((d+2)^(2d+1)), in exact integers."""
    for d in range(1, 5):
        for m in range(1, 4):
            ext = reference_extractor(d, m)
            assert ext.is_m_adapted(m)
            assert all(isinstance(t, int) for t in ext.thresholds)
            assert power_dominates(3 * d * m, (d + 2) ** (2 * d + 1), ext[d])
    # spot-check the shortcut against the fully expanded power
    assert 3**27 >= reference_extractor(1, 1)[1]
    return ("d <= 4, m <= 3, exact big integers")


@criterion(13, 60)
def test_criterion_13_compile_determinism(tmp_path, token_swap):
    """Two identical compile runs produce byte-identical files."""
    net_file = tmp_path / "net.net"
    net_file.write_text(format_net(token_swap))
    for mode in ("mutual", "bottom"):
        outs = []
        for tag in ("a", "b"):
            base = tmp_path / f"{mode}-{tag}"
            code = cli_main(
                ["compile", str(net_file), "--mode", mode, "--out", str(base)]
            )
            assert code == 0
            suffix = ".mrf" if mode == "mutual" else ".btf"
            outs.append(
                tuple(
                    (tmp_path / f"{mode}-{tag}{s}").read_bytes()
                    for s in (suffix, ".smt2", ".json")
                )
            )
        assert outs[0] == outs[1]
    return ("mutual and bottom outputs byte-identical")
