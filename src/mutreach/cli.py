"""Command-line front end: check-mutual, compile, eval, explore.

Exit codes: 0 when a verdict or artifact was produced, 2 when the result
is inconclusive or a budget ran out, 1 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .net import NetError, load_net, parse_config
from .oracle import BoundedStateSpace, reach_graph_to_dot
from .presburger import (
    MutualFormula,
    bottom_from_text,
    bottom_to_json,
    bottom_to_smtlib,
    bottom_to_text,
    compile_bottom,
    compile_mutual,
    eval_bottom,
    eval_mutual,
    formula_lines,
    mutual_from_text,
    mutual_to_json,
    mutual_to_smtlib,
    mutual_to_text,
)
from .unfolding import EnumLimits
from .witness import (
    PumpingParams,
    SynthesisError,
    exact_state_bound,
    search_witness,
    synthesize_path,
)
from .witnessio import witness_to_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _params_from(args) -> PumpingParams:
    off = None
    if args.off_threshold != "exact":
        off = int(args.off_threshold)
    return PumpingParams(
        state_bound=args.state_bound, cycle_len=args.cycle_len, off_threshold=off
    )


def _limits_from(args) -> EnumLimits:
    return EnumLimits(max_states=args.max_states, max_unfoldings=args.max_unfoldings)


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--state-bound", type=int, default=4,
                   help="enumerate unfolding states of norm strictly below this")
    p.add_argument("--cycle-len", type=int, default=4,
                   help="pumping cycle-word length cap")
    p.add_argument("--off-threshold", default="exact",
                   help="'exact' for the per-unfolding certified value, or an integer")
    p.add_argument("--max-states", type=int, default=6,
                   help="largest unfolding state-set size enumerated")
    p.add_argument("--max-unfoldings", type=int, default=5000)


def _report_exact_parameters(net):
    symbolic, value = exact_state_bound(net.dim, net.norm)
    note = f" = {value}" if value is not None and value < 10**40 else ""
    d = net.dim
    print(f"exact state-norm bound for certified completeness: {symbolic}{note}")
    print(f"exact pumping-cycle length bound: {d}*b^{d} with b the bound above")
    print("verdicts below use the exact per-unfolding pumping threshold unless "
          "--off-threshold overrides it; smaller search bounds lose only completeness")


def cmd_check_mutual(args) -> int:
    net = load_net(args.net)
    x = parse_config(args.x, net.dim)
    y = parse_config(args.y, net.dim)
    params = _params_from(args)
    _report_exact_parameters(net)
    result = search_witness(net, x, y, params, budget=args.budget, limits=_limits_from(args))

    oracle_verdict = None
    if args.box is not None:
        space = BoundedStateSpace(net, args.box)
        if space.inside(x) and space.inside(y):
            oracle_verdict = space.mutual(x, y)

    if result.status == "found":
        w = result.witness
        kind = "certified" if w.certified else "heuristic"
        print(f"mutual ({kind}); unfolding over I={list(w.unfolding.index_set)} "
              f"with {w.unfolding.size} states; {result.examined} unfoldings examined")
        if args.synthesize:
            try:
                w.words[(x, y)] = synthesize_path(net, x, y, w)
                w.words[(y, x)] = synthesize_path(net, y, x, w)
                print(f"words: {x}->{y} via {list(w.words[(x, y)])}, "
                      f"{y}->{x} via {list(w.words[(y, x)])}")
            except SynthesisError as exc:
                print(f"synthesis failed: {exc}")
        if args.witness_out:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                fh.write(witness_to_text(w))
            print(f"witness written to {args.witness_out}")
        if oracle_verdict is False:
            print("WARNING: oracle disagrees (reports not mutual); please report this")
        elif oracle_verdict is True:
            print("oracle agrees (mutual)")
        return EXIT_OK

    print(f"no witness within bounds ({result.status}, {result.examined} unfoldings examined)")
    if oracle_verdict is False:
        print("not mutual (oracle)")
        return EXIT_OK
    if oracle_verdict is True:
        print("oracle says mutual; raise --state-bound / --max-states to find a witness")
        return EXIT_INCONCLUSIVE
    print("inconclusive (no oracle verdict available)")
    return EXIT_INCONCLUSIVE


def cmd_compile(args) -> int:
    net = load_net(args.net)
    params = _params_from(args)
    limits = _limits_from(args)
    _report_exact_parameters(net)
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    bad = [f for f in formats if f not in ("text", "smtlib", "json")]
    if bad:
        print(f"error: unknown formats {bad}", file=sys.stderr)
        return EXIT_USAGE

    if args.mode == "mutual":
        formula = compile_mutual(net, params, limits, workers=args.workers)
        writers = {"text": (".mrf", mutual_to_text), "smtlib": (".smt2", mutual_to_smtlib),
                   "json": (".json", mutual_to_json)}
        print(f"{len(formula.disjuncts)} disjuncts ({formula.provenance}"
              f"{'' if formula.complete else ', enumeration truncated'})")
        incomplete = not formula.complete
    else:
        formula = compile_bottom(net, params, limits)
        writers = {"text": (".btf", bottom_to_text), "smtlib": (".smt2", bottom_to_smtlib),
                   "json": (".json", bottom_to_json)}
        print(f"{len(formula.tuples)} tuples ({formula.provenance}"
              f"{'' if formula.complete else ', enumeration truncated'})")
        incomplete = not formula.complete

    for f in formats:
        suffix, writer = writers[f]
        path = args.out + suffix
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(writer(formula))
        print(f"wrote {path}")
    return EXIT_INCONCLUSIVE if incomplete else EXIT_OK


def _load_formula(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head = next(iter(formula_lines(text)), "")
    if head == "kind mutual":
        return mutual_from_text(text)
    if head == "kind bottom":
        return bottom_from_text(text)
    raise NetError("unrecognized formula file (expected 'kind mutual' or 'kind bottom')")


def cmd_eval(args) -> int:
    formula = _load_formula(args.formula)
    mutual = isinstance(formula, MutualFormula)
    wrong = args.point if mutual else args.pair
    if wrong:
        flag, kind = ("--point", "mutual") if mutual else ("--pair", "bottom")
        print(f"error: {flag} does not apply to a {kind} formula", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    inconclusive = False
    if mutual:
        if args.pair:
            for pair_text in args.pair:
                x_text, _, y_text = pair_text.partition("/")
                x = parse_config(x_text, formula.dim)
                y = parse_config(y_text, formula.dim)
                rows.append((x, y, eval_mutual(formula, x, y)))
        if args.box is not None:
            pts = list(itertools.product(range(args.box + 1), repeat=formula.dim))
            for x in pts:
                for y in pts:
                    rows.append((x, y, eval_mutual(formula, x, y)))
        header = "x,y,mutual"
        lines = [header] + [
            f"{' '.join(map(str, x))},{' '.join(map(str, y))},{int(v)}" for x, y, v in rows
        ]
    else:
        points = []
        if args.point:
            points.extend(parse_config(p, formula.dim) for p in args.point)
        if args.box is not None:
            points.extend(itertools.product(range(args.box + 1), repeat=formula.dim))
        for c in points:
            v = eval_bottom(formula, c, method=args.method, radius=args.radius)
            inconclusive = inconclusive or v is None
            rows.append((c, v))
        header = "c,bottom"
        lines = [header] + [
            f"{' '.join(map(str, c))},{'?' if v is None else int(v)}" for c, v in rows
        ]
    out = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(out)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        sys.stdout.write(out)
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def cmd_explore(args) -> int:
    net = load_net(args.net)
    space = BoundedStateSpace(net, args.box)
    comps = space.components()
    reliable = [c for c in comps if space.reliable(c)]
    print(f"{len(space._succ)} configurations in the box, {len(comps)} components, "
          f"{len(reliable)} reliable")
    bottoms = []
    for comp in reliable:
        rep = min(comp)
        if space.bottom(rep):
            bottoms.append(comp)
    print(f"{len(bottoms)} bottom components (reliable only)")
    for comp in sorted(bottoms, key=min)[: args.list_limit]:
        print("  bottom:", " | ".join(",".join(map(str, c)) for c in sorted(comp)))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(reach_graph_to_dot(net, args.box))
        print(f"wrote {args.dot}")
    if args.json:
        payload = {
            "box": list(space.box),
            "components": [
                {"members": sorted(map(list, comp)), "reliable": space.reliable(comp),
                 "bottom": space.bottom(min(comp)) if space.reliable(comp) else None}
                for comp in sorted(comps, key=min)
            ],
        }
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        print(f"wrote {args.json}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mutreach",
        description="Mutual-reachability certificates for Petri nets and their "
        "compilation into quantifier-free formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-mutual", help="decide mutual reachability of two configurations")
    p.add_argument("net", help="net file (dim header plus 'pre: ... post: ...' lines)")
    p.add_argument("--x", required=True, help="source configuration, e.g. '2 0'")
    p.add_argument("--y", required=True, help="target configuration")
    _add_param_flags(p)
    p.add_argument("--budget", type=int, default=10000, help="max unfoldings examined")
    p.add_argument("--box", type=int, default=None, help="cross-check with the bounded oracle")
    p.add_argument("--witness-out", default=None, help="write the witness certificate here")
    p.add_argument("--synthesize", action="store_true", help="also synthesize firing words")
    p.set_defaults(func=cmd_check_mutual)

    p = sub.add_parser("compile", help="compile the mutual or bottom formula")
    p.add_argument("net")
    p.add_argument("--mode", choices=("mutual", "bottom"), default="mutual")
    p.add_argument("--out", required=True, help="output base path (suffixes added)")
    p.add_argument("--formats", default="text,smtlib,json")
    _add_param_flags(p)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for enumeration shards (deterministic merge)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a compiled formula at points")
    p.add_argument("formula", help="formula file written by compile")
    p.add_argument("--pair", action="append", default=[],
                   help="mutual formulas: 'x1 .. xd / y1 .. yd' (repeatable)")
    p.add_argument("--point", action="append", default=[],
                   help="bottom formulas: 'c1 .. cd' (repeatable)")
    p.add_argument("--box", type=int, default=None, help="sweep all points up to this bound")
    p.add_argument("--method", choices=("exact", "enumerate"), default="exact")
    p.add_argument("--radius", type=int, default=8, help="enumeration radius for --method enumerate")
    p.add_argument("--csv", default=None, help="write the verdict table here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explore", help="bounded reachability graph, components, bottom report")
    p.add_argument("net")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--dot", default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--list-limit", type=int, default=20)
    p.set_defaults(func=cmd_explore)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (NetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
