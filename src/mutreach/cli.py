"""Command-line front end: check-mutual, compile, eval, explore.

Exit codes: 0 when a verdict or artifact was produced, 2 when the result
is inconclusive or a budget ran out, 1 for usage or parse errors.
`eval` needs a query (`--pair` or `--box` for a mutual formula, `--point`
or `--box` for a bottom one) and prints `1` or `0` per row.  When a
`provenance heuristic` formula prints any `1` row, `eval` still prints
the table, writes one `warning:` line to stderr and exits 2, because
such a `1` is not certified.  Likewise when a `complete 0` formula (a
compile budget ran out) prints any `0` row: truncation only drops
disjuncts and tuples, so its `1` rows stand, but a `0` is no refutation.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from collections import namedtuple

from .net import NetError, load_net, parse_config
from .oracle import BoundedStateSpace, reach_graph_to_dot
from .presburger import (
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


def _integer_from(least: int, what: str):
    """An argparse type: an integer of at least `least`, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_natural = _integer_from(0, "a non-negative integer")
_positive = _integer_from(1, "a positive integer")


def _off_threshold(text: str) -> int | None:
    """None for `exact`, else a non-negative integer."""
    if text == "exact":
        return None
    try:
        return _natural(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected 'exact' or a non-negative integer, got {text!r}"
        ) from None


def _params_from(args) -> PumpingParams:
    return PumpingParams(
        state_bound=args.state_bound, cycle_len=args.cycle_len, off_threshold=args.off_threshold
    )


def _limits_from(args) -> EnumLimits:
    return EnumLimits(max_states=args.max_states, max_unfoldings=args.max_unfoldings)


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--state-bound", type=_positive, default=4,
                   help="enumerate unfolding states of norm strictly below this")
    p.add_argument("--cycle-len", type=_natural, default=4,
                   help="pumping cycle-word length cap")
    p.add_argument("--off-threshold", type=_off_threshold, default="exact",
                   help="'exact' for the per-unfolding certified value, or an integer")
    p.add_argument("--max-states", type=_positive, default=EnumLimits().max_states,
                   help="largest unfolding state-set size enumerated")
    p.add_argument("--max-unfoldings", type=_natural, default=EnumLimits().max_unfoldings)


def _check_output_paths(*paths: str | None) -> None:
    """Fail before any work when an output path is a directory or its
    directory does not exist."""
    for path in paths:
        if path is not None:
            if os.path.isdir(path):
                raise IsADirectoryError(f"output path {path!r} is a directory")
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                raise FileNotFoundError(f"output directory {parent!r} does not exist")


def _report_exact_parameters(net):
    symbolic, value = exact_state_bound(net.dim, net.norm)
    note = "" if value is None else f" = {value}"
    d = net.dim
    print(f"exact state-norm bound for certified completeness: {symbolic}{note}")
    print(f"exact pumping-cycle length bound: {d}*b^{d} with b the bound above")
    print("verdicts below use the exact per-unfolding pumping threshold unless "
          "--off-threshold overrides it; smaller search bounds lose only completeness")


def cmd_check_mutual(args) -> int:
    _check_output_paths(args.witness_out)
    net = load_net(args.net)
    x = parse_config(args.x, net.dim)
    y = parse_config(args.y, net.dim)
    params = _params_from(args)
    limits = _limits_from(args)
    _report_exact_parameters(net)
    result = search_witness(net, x, y, params, budget=args.budget, limits=limits)

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
        words = {}
        if args.synthesize:
            try:
                words[(x, y)] = synthesize_path(net, x, y, w)
                words[(y, x)] = synthesize_path(net, y, x, w)
                print(f"words: {x}->{y} via {list(words[(x, y)])}, "
                      f"{y}->{x} via {list(words[(y, x)])}")
            except SynthesisError as exc:
                print(f"synthesis failed: {exc}")
        if args.witness_out:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                fh.write(witness_to_text(w, words))
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
        limit = {"not-found-budget": "--budget", "not-found-truncated": "--max-unfoldings"}.get(
            result.status, "--state-bound / --max-states"
        )
        print(f"oracle says mutual; raise {limit} to find a witness")
        return EXIT_INCONCLUSIVE
    print("inconclusive (no oracle verdict available)")
    return EXIT_INCONCLUSIVE


# One formula kind: its name (the `kind` line and the `--mode` value), compiler,
# reader, the field of parts its report counts, format -> (suffix, writer), the
# `eval` query flag, configurations per query, table header and evaluator.
_Kind = namedtuple("_Kind", "name compile read parts writers flag arity header evaluate")


def _kinds() -> dict[str, _Kind]:
    # built per call, so a binding swapped after import (a tracer) is used
    kinds = (
        _Kind("mutual", compile_mutual, mutual_from_text, "disjuncts",
              {"text": (".mrf", mutual_to_text), "smtlib": (".smt2", mutual_to_smtlib),
               "json": (".json", mutual_to_json)},
              "pair", 2, "x,y,mutual", eval_mutual),
        _Kind("bottom", compile_bottom, bottom_from_text, "tuples",
              {"text": (".btf", bottom_to_text), "smtlib": (".smt2", bottom_to_smtlib),
               "json": (".json", bottom_to_json)},
              "point", 1, "c,bottom", eval_bottom),
    )
    return {k.name: k for k in kinds}


def cmd_compile(args) -> int:
    kind = _kinds()[args.mode]
    # each named format once, in the order given
    formats = list(dict.fromkeys(f.strip() for f in args.formats.split(",") if f.strip()))
    bad = [f for f in formats if f not in kind.writers]
    if bad or not formats:
        print(f"error: --formats needs some of text, smtlib, json; got {args.formats!r}",
              file=sys.stderr)
        return EXIT_USAGE
    outputs = [(args.out + suffix, writer) for suffix, writer in map(kind.writers.get, formats)]
    _check_output_paths(*(path for path, _ in outputs))
    net = load_net(args.net)
    _report_exact_parameters(net)

    formula = kind.compile(net, _params_from(args), _limits_from(args))
    print(f"{len(getattr(formula, kind.parts))} {kind.parts} ({formula.provenance}"
          f"{'' if formula.complete else ', enumeration truncated'})")

    for path, writer in outputs:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(writer(formula))
        print(f"wrote {path}")
    return EXIT_OK if formula.complete else EXIT_INCONCLUSIVE


def _load_formula(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head = next(iter(formula_lines(text)), "")
    for kind in _kinds().values():
        if head == f"kind {kind.name}":
            return kind, kind.read(text)
    raise NetError("unrecognized formula file (expected 'kind mutual' or 'kind bottom')")


def _query(text: str, arity: int, dim: int) -> tuple:
    """`arity` configurations separated by `/`; a missing one reads as empty."""
    texts = []
    for _ in range(arity - 1):
        head, _, text = text.partition("/")
        texts.append(head)
    return tuple(parse_config(t, dim) for t in texts + [text])


def cmd_eval(args) -> int:
    _check_output_paths(args.csv)
    kind, formula = _load_formula(args.formula)
    for other in _kinds().values():
        if other.flag != kind.flag and getattr(args, other.flag):
            print(f"error: --{other.flag} does not apply to a {kind.name} formula",
                  file=sys.stderr)
            return EXIT_USAGE
    if not getattr(args, kind.flag) and args.box is None:
        print(f"error: eval of a {kind.name} formula needs --{kind.flag} or --box",
              file=sys.stderr)
        return EXIT_USAGE
    queries = [_query(q, kind.arity, formula.dim) for q in getattr(args, kind.flag)]
    if args.box is not None:
        points = list(itertools.product(range(args.box + 1), repeat=formula.dim))
        queries.extend(itertools.product(points, repeat=kind.arity))
    rows = [(q, kind.evaluate(formula, *q)) for q in queries]
    lines = [kind.header] + [
        ",".join(" ".join(map(str, c)) for c in q) + f",{int(v)}" for q, v in rows
    ]
    out = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(out)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        sys.stdout.write(out)
    ones = sum(1 for _, v in rows if v)
    warnings = []
    if formula.provenance == "heuristic" and ones:
        warnings.append(f"{ones} row(s) print 1 from a heuristic formula (compiled below "
                        "the certified pumping thresholds), so they are not certified")
    if not formula.complete and ones < len(rows):
        # truncation only drops disjuncts and tuples, so the ones stand
        warnings.append(f"{len(rows) - ones} row(s) print 0 from a truncated formula (complete 0: "
                        "a compile budget ran out), so they are not refutations")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_INCONCLUSIVE if warnings else EXIT_OK


def cmd_explore(args) -> int:
    _check_output_paths(args.dot, args.json)
    net = load_net(args.net)
    space = BoundedStateSpace(net, args.box)
    comps = space.components()
    # per component, whether it is bottom, or None when it is not reliable
    bottom = {comp: space.bottom(min(comp)) for comp in comps}
    reliable = [c for c in comps if bottom[c] is not None]
    print(f"{sum(map(len, comps))} configurations in the box, {len(comps)} components, "
          f"{len(reliable)} reliable")
    bottoms = [c for c in reliable if bottom[c]]
    print(f"{len(bottoms)} bottom components (reliable only)")
    for comp in sorted(bottoms, key=min)[: args.list_limit]:
        print("  bottom:", " | ".join(",".join(map(str, c)) for c in sorted(comp)))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(reach_graph_to_dot(space))
        print(f"wrote {args.dot}")
    if args.json:
        payload = {
            "box": list(space.box),
            "components": [
                {"members": sorted(map(list, comp)), "reliable": bottom[comp] is not None,
                 "bottom": bottom[comp]}
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
    p.add_argument("--budget", type=_positive, default=10000,
                   help="max unfoldings examined; index sets that cannot hold x and y "
                   "(an entry in I at or above --state-bound, or one outside I too small "
                   "to pump) are skipped and not counted")
    p.add_argument("--box", type=_natural, default=None,
                   help="cross-check with the bounded oracle")
    p.add_argument("--witness-out", default=None, help="write the witness certificate here")
    p.add_argument("--synthesize", action="store_true", help="also synthesize firing words")
    p.set_defaults(func=cmd_check_mutual)

    p = sub.add_parser("compile", help="compile the mutual or bottom formula")
    p.add_argument("net")
    p.add_argument("--mode", choices=tuple(_kinds()), default="mutual")
    p.add_argument("--out", required=True, help="output base path (suffixes added)")
    p.add_argument("--formats", default="text,smtlib,json")
    _add_param_flags(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a compiled formula at points")
    p.add_argument("formula", help="formula file written by compile")
    p.add_argument("--pair", action="append", default=[],
                   help="mutual formulas: 'x1 .. xd / y1 .. yd' (repeatable)")
    p.add_argument("--point", action="append", default=[],
                   help="bottom formulas: 'c1 .. cd' (repeatable)")
    p.add_argument("--box", type=_natural, default=None,
                   help="sweep all points up to this bound")
    p.add_argument("--csv", default=None, help="write the verdict table here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explore", help="bounded reachability graph, components, bottom report")
    p.add_argument("net")
    p.add_argument("--box", type=_natural, required=True)
    p.add_argument("--dot", default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--list-limit", type=_natural, default=20)
    p.set_defaults(func=cmd_explore)
    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic collector paused, and put it back as
    the caller had it.  A command's data (disjuncts, tuples, rendered files,
    state spaces) holds no reference cycles, so the pause leaves no garbage
    behind; it only spares the collector rescanning many small objects
    (`tests/test_cli.py` pins both)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
