import gc
import hashlib
import json
from pathlib import Path

import pytest

from conftest import format_net
from mutreach import cli
from mutreach.cli import main
from mutreach.oracle import BoundedStateSpace
from mutreach.net import load_net
from mutreach.witnessio import witness_from_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def net_path(tmp_path, token_swap):
    p = tmp_path / "swap.net"
    p.write_text(format_net(token_swap))
    return str(p)


def test_fixture_files_parse(fixture_nets):
    for name in fixture_nets:
        net = load_net(FIXTURES / f"{name}.net")
        assert net == fixture_nets[name]


def test_check_mutual_found(net_path, tmp_path, capsys):
    out = tmp_path / "witness.txt"
    code = main(
        [
            "check-mutual", net_path,
            "--x", "2 0", "--y", "0 2",
            "--box", "5", "--synthesize",
            "--witness-out", str(out),
        ]
    )
    printed = capsys.readouterr().out
    assert code == 0
    assert "mutual (certified)" in printed
    assert "oracle agrees" in printed
    net = load_net(net_path)
    _, words = witness_from_text(net, out.read_text())
    assert set(words) == {((2, 0), (0, 2)), ((0, 2), (2, 0))}


CHARGE_WORDS = [
    "word 1 9300 -> 1 9312 : 2 2 2 2 0 1 0 2 1 2 2 0 1 0 2 1 2 2 0 1 0 2 1 2 2 0 1 0 2 1 2 2 0 1"
    " 0 1",
    "word 1 9312 -> 1 9300 : 2 2 2 2 0 1 0 1 0 2 1 2 0 1 0 1 0 2 1 2 0 1 0 1 0 2 1 2 0 1 0 1 0 2"
    " 1 2 0 1 0 1 0 2 1 2 0 1 0 1 0 2 1 2 0 1 0 1 0 2 1 2 0 1 0 1 0 2 1 2 0 1 0 1",
]


def test_check_mutual_charge_words_are_pinned(tmp_path, capsys):
    """Both words repay a lattice difference of 12 charges with cycles
    embedded as Euler circuits of the circulation Z, so they follow the
    simplex vertex: 36 and 72 actions."""
    net = tmp_path / "charge.net"
    net.write_text("dim 2\npre: 1 0  post: 0 0\npre: 0 2  post: 1 0\npre: 0 0  post: 0 2\n")
    out = tmp_path / "wc.txt"
    code = main(["check-mutual", str(net), "--x", "1 9300", "--y", "1 9312", "--state-bound", "2",
                 "--synthesize", "--witness-out", str(out)])
    assert code == 0
    assert "mutual (certified)" in capsys.readouterr().out
    words = [line for line in out.read_text().splitlines() if line.startswith("word ")]
    assert words == CHARGE_WORDS
    assert [len(w.split(" : ")[1].split()) for w in words] == [36, 72]


def test_check_mutual_trivial_pair(net_path, tmp_path, capsys):
    out = tmp_path / "witness.txt"
    code = main(["check-mutual", net_path, "--x", "1 1", "--y", "1 1", "--synthesize",
                 "--witness-out", str(out)])
    assert code == 0
    assert "mutual (certified)" in capsys.readouterr().out
    # the empty word joins the one configuration to itself and reads back
    _, words = witness_from_text(load_net(net_path), out.read_text())
    assert words == {((1, 1), (1, 1)): ()}


def test_check_mutual_oracle_refutes(tmp_path, consumer, capsys):
    p = tmp_path / "consumer.net"
    p.write_text(format_net(consumer))
    code = main(["check-mutual", str(p), "--x", "1", "--y", "0", "--box", "4"])
    assert code == 0
    assert "not mutual (oracle)" in capsys.readouterr().out


def test_check_mutual_inconclusive_without_box(tmp_path, consumer, capsys):
    p = tmp_path / "consumer.net"
    p.write_text(format_net(consumer))
    code = main(["check-mutual", str(p), "--x", "1", "--y", "0"])
    assert code == 2
    assert "inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["-5", "0", "abc"])
def test_check_mutual_budget_must_be_positive(net_path, capsys, value):
    argv = ["check-mutual", net_path, "--x", "2 0", "--y", "0 2", "--box", "5", "--budget", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: mutreach check-mutual")
    assert captured.err.endswith(
        f"error: argument --budget: expected a positive integer, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "flags, status, limit",
    [
        (["--budget", "3"], "not-found-budget, 3 unfoldings examined", "--budget"),
        (["--max-unfoldings", "1"], "not-found-truncated, 1 unfoldings examined",
         "--max-unfoldings"),
    ],
)
def test_check_mutual_names_the_limit_that_ran_out(net_path, capsys, flags, status, limit):
    argv = ["check-mutual", net_path, "--x", "2 0", "--y", "0 2", "--box", "5", *flags]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert f"no witness within bounds ({status})" in out
    assert f"oracle says mutual; raise {limit} to find a witness" in out


def test_usage_errors_exit_one(tmp_path):
    assert main(["no-such-command"]) == 1
    assert main(["check-mutual", str(tmp_path / "missing.net"), "--x", "1", "--y", "2"]) == 1
    bad = tmp_path / "bad.net"
    bad.write_text("dim x\n")
    assert main(["check-mutual", str(bad), "--x", "1", "--y", "2"]) == 1


def test_explore_rejects_a_malformed_dim_header(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("dim 2 3\npre: 1 0  post: 0 1\n")
    assert main(["explore", str(bad), "--box", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: malformed dim header" in captured.err


def test_compile_outputs_and_determinism(net_path, tmp_path, capsys):
    base1 = tmp_path / "one"
    base2 = tmp_path / "two"
    for base in (base1, base2):
        code = main(
            ["compile", net_path, "--mode", "mutual", "--out", str(base), "--state-bound", "3"]
        )
        assert code == 0
    for suffix in (".mrf", ".smt2", ".json"):
        a = (base1.parent / (base1.name + suffix)).read_bytes()
        b = (base2.parent / (base2.name + suffix)).read_bytes()
        assert a == b
    payload = json.loads((base1.parent / "one.json").read_text())
    assert payload["kind"] == "mutual" and payload["dim"] == 2


def test_compile_bottom_and_eval(net_path, tmp_path, capsys):
    base = tmp_path / "bottom"
    code = main(["compile", net_path, "--mode", "bottom", "--out", str(base)])
    assert code == 0
    capsys.readouterr()
    code = main(["eval", str(base) + ".btf", "--point", "1 1", "--point", "2 0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "c,bottom" in out
    assert "1 1,1" in out and "2 0,1" in out


def test_eval_pairs_and_box_csv(net_path, tmp_path, capsys):
    base = tmp_path / "formula"
    main(["compile", net_path, "--mode", "mutual", "--out", str(base), "--state-bound", "4"])
    capsys.readouterr()
    code = main(["eval", str(base) + ".mrf", "--pair", "2 0 / 0 2", "--pair", "2 0 / 1 0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 0,0 2,1" in out
    assert "2 0,1 0,0" in out
    csv = tmp_path / "sweep.csv"
    code = main(["eval", str(base) + ".mrf", "--box", "2", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y,mutual"
    assert len(lines) == 1 + 81  # 9 points squared


def test_eval_malformed_point(net_path, tmp_path, capsys):
    base = tmp_path / "formula"
    main(["compile", net_path, "--mode", "mutual", "--out", str(base)])
    assert main(["eval", str(base) + ".mrf", "--pair", "nonsense"]) == 1
    main(["compile", net_path, "--mode", "bottom", "--out", str(base), "--formats", "text"])
    capsys.readouterr()
    assert main(["eval", str(base) + ".btf", "--point", "1 x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-integer entry 'x' in configuration '1 x'\n"


def test_eval_malformed_formula_exits_one(net_path, tmp_path, capsys):
    base = tmp_path / "formula"
    for mode in ("mutual", "bottom"):
        main(["compile", net_path, "--mode", mode, "--out", str(base), "--formats", "text"])
    mrf = (tmp_path / "formula.mrf").read_text().splitlines(keepends=True)
    btf = (tmp_path / "formula.btf").read_text().splitlines(keepends=True)
    pair, point = ["--pair", "1 0 / 0 1"], ["--point", "1 1"]
    cases = [
        ("cut.mrf", "".join(mrf[:12]), pair, "unterminated 'disjunct' block"),
        ("cut.btf", "".join(btf[:9]), point, "unterminated 'tuple' block"),
        ("junk.btf", "kind bottom\ndim 2\nfoo\n", point, "unknown or repeated header field 'foo'"),
        ("other.mrf", "kind other\ndim 2\n", pair, "unrecognized formula file"),
        ("dim0.mrf", "kind mutual\ndim 0\n", pair, "dim must be positive, got 0"),
        ("maybe.mrf", "kind mutual\ndim 2\nprovenance maybe\n", pair, "unknown provenance 'maybe'"),
        ("stray.mrf", "".join(mrf) + "junk\n", pair, "expected 'disjunct', got 'junk'"),
    ]
    capsys.readouterr()
    for name, text, query, message in cases:
        path = tmp_path / name
        path.write_text(text)
        assert main(["eval", str(path), *query]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1, name


@pytest.mark.parametrize(
    "mode, suffix, query",
    [("mutual", ".mrf", ["--point", "1 1"]), ("bottom", ".btf", ["--pair", "1 0 / 0 1"])],
)
def test_eval_rejects_flags_for_the_other_kind(net_path, tmp_path, capsys, mode, suffix, query):
    base = tmp_path / "formula"
    main(["compile", net_path, "--mode", mode, "--out", str(base), "--formats", "text"])
    capsys.readouterr()
    assert main(["eval", str(base) + suffix, *query]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {query[0]} ") and captured.err.count("\n") == 1


def test_eval_skips_leading_comment_lines(net_path, tmp_path, capsys):
    base = tmp_path / "formula"
    for mode in ("mutual", "bottom"):
        main(["compile", net_path, "--mode", mode, "--out", str(base), "--formats", "text"])
    for suffix, query in ((".mrf", ["--pair", "1 0 / 0 1", "--box", "2"]), (".btf", ["--box", "2"])):
        plain = tmp_path / f"formula{suffix}"
        commented = tmp_path / f"commented{suffix}"
        commented.write_text("# note\n" + plain.read_text())
        capsys.readouterr()
        code = main(["eval", str(plain), *query])
        expected = capsys.readouterr().out
        assert code != 1 and expected.count("\n") > 1
        assert main(["eval", str(commented), *query]) == code, suffix
        assert capsys.readouterr().out == expected


def test_eval_bottom_decides_the_empty_index_tuple(net_path, tmp_path, capsys):
    base = tmp_path / "bottom"
    main(["compile", net_path, "--mode", "bottom", "--out", str(base)])
    capsys.readouterr()
    # a point only the empty-index tuple matches (and large enough to
    # pass its pumping membership): its lattice is infinite, and the
    # counterexample to the universal is found and decides
    code = main(["eval", str(base) + ".btf", "--point", "50 50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "50 50,0" in out


def test_eval_of_a_heuristic_formula_warns_on_its_ones(tmp_path, capsys):
    """Below the certified thresholds the ring formula accepts (0 1, 1 0),
    which the oracle refutes; the table is printed, but a `1` from a
    heuristic formula is not a verdict, so eval warns and exits 2."""
    ring = str(FIXTURES / "ring.net")
    heuristic, certified = tmp_path / "heuristic", tmp_path / "certified"
    main(["compile", ring, "--off-threshold", "0", "--formats", "text", "--out", str(heuristic)])
    main(["compile", ring, "--formats", "text", "--out", str(certified)])
    capsys.readouterr()
    assert main(["eval", str(heuristic) + ".mrf", "--pair", "0 1 / 1 0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "x,y,mutual\n0 1,1 0,1\n"
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
    # the certified formula's ones stand, and so does a heuristic table of zeros
    assert main(["eval", str(certified) + ".mrf", "--pair", "0 1 / 1 0", "--pair", "3 1 / 1 3"]) == 0
    assert main(["eval", str(heuristic) + ".mrf", "--pair", "0 1 / 0 0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x,y,mutual\n0 1,1 0,0\n3 1,1 3,1\nx,y,mutual\n0 1,0 0,0\n"
    assert captured.err == ""


def test_eval_of_a_truncated_formula_warns_on_its_zeros(tmp_path, capsys):
    """Cut at three unfoldings, the token_swap formula misses (2 0, 0 2),
    which the complete formula accepts; a `0` from a `complete 0` formula
    is not a refutation, so eval warns and exits 2.  Truncation only drops
    disjuncts, so its ones stand."""
    swap = str(FIXTURES / "token_swap.net")
    cut, whole = tmp_path / "cut", tmp_path / "whole"
    assert main(["compile", swap, "--max-unfoldings", "3", "--formats", "text",
                 "--out", str(cut)]) == 2
    assert main(["compile", swap, "--formats", "text", "--out", str(whole)]) == 0
    assert "complete 0\n" in (tmp_path / "cut.mrf").read_text()
    capsys.readouterr()
    assert main(["eval", str(cut) + ".mrf", "--pair", "2 0 / 0 2", "--pair", "1 0 / 1 0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "x,y,mutual\n2 0,0 2,0\n1 0,1 0,1\n"
    assert captured.err.startswith("warning: 1 row(s) print 0 ") and captured.err.count("\n") == 1
    assert main(["eval", str(whole) + ".mrf", "--pair", "2 0 / 0 2"]) == 0
    # a truncated table of ones stands
    assert main(["eval", str(cut) + ".mrf", "--pair", "1 0 / 1 0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x,y,mutual\n2 0,0 2,1\nx,y,mutual\n1 0,1 0,1\n"
    assert captured.err == ""


# Z^2 and an implication whose antecedent holds far out and whose
# consequent never does: v = (100, 100) violates phi at c = 0 + v, a point
# of an unbounded box far from the origin.
FAR_VIOLATION_BTF = """kind bottom
dim 2
provenance heuristic
complete 0
tuple
index-set
state
pair 1 : 1 0
pair 1 : 0 1
member 0 0
imp 100 100 =>
end
"""


def test_eval_bottom_decides_a_violation_far_out(tmp_path, capsys):
    path = tmp_path / "far.btf"
    path.write_text(FAR_VIOLATION_BTF)
    # the file says `complete 0`, so its zeros come with a warning and exit 2
    assert main(["eval", str(path), "--point", "0 0", "--point", "3 1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "c,bottom\n0 0,0\n3 1,0\n"
    assert captured.err.startswith("warning: 2 row(s) print 0 from a truncated formula")
    # with the consequent (100, 0), a violation needs v >= (100, 100) and
    # v0 <= 99 or v1 <= -1: both boxes are empty, so 0 0 is accepted
    certified = FAR_VIOLATION_BTF.replace("heuristic", "certified")
    path.write_text(certified.replace("imp 100 100 =>", "imp 100 100 => 100 0"))
    assert main(["eval", str(path), "--point", "0 0"]) == 0
    assert capsys.readouterr().out == "c,bottom\n0 0,1\n"


@pytest.mark.parametrize(
    "line",
    ["offset : 0 0", "phi (and (=> (or (and (ge (1 0) 100) (ge (0 1) 100))) (or)))"],
    ids=["offset", "phi"],
)
def test_eval_rejects_a_bottom_file_with_phi_or_offset_lines(tmp_path, capsys, line):
    """Bottom files once also held the rendered phi and the path offsets;
    such a file is refused, to be compiled again."""
    path = tmp_path / "old.btf"
    path.write_text(FAR_VIOLATION_BTF.replace("end\n", line + "\nend\n"))
    assert main(["eval", str(path), "--point", "0 0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key = line.split()[0]
    assert captured.err == f"error: unknown or repeated tuple field {key!r}\n"


@pytest.mark.parametrize("mode, suffix", [("mutual", ".mrf"), ("bottom", ".btf")])
def test_eval_needs_a_query(net_path, tmp_path, capsys, mode, suffix):
    base = tmp_path / "formula"
    main(["compile", net_path, "--mode", mode, "--out", str(base), "--formats", "text"])
    capsys.readouterr()
    assert main(["eval", str(base) + suffix]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eval ") and captured.err.count("\n") == 1


def test_eval_has_no_method_flag(tmp_path, capsys):
    path = tmp_path / "far.btf"
    path.write_text(FAR_VIOLATION_BTF)
    assert main(["eval", str(path), "--point", "0 0", "--method", "exact"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --method exact" in captured.err


def test_explore_outputs(net_path, tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    js = tmp_path / "graph.json"
    code = main(
        ["explore", net_path, "--box", "3", "--dot", str(dot), "--json", str(js)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "components" in out
    assert dot.read_text().startswith("digraph")
    payload = json.loads(js.read_text())
    assert payload["box"] == [3, 3]
    level2 = [[0, 2], [1, 1], [2, 0]]
    assert any(c["members"] == level2 and c["bottom"] for c in payload["components"])



def test_explore_builds_the_state_space_once(tmp_path, capsys, monkeypatch):
    """`--dot` draws the space the command already built, and the DOT text
    is the one pinned here (mixed3 in the box [0, 3]^3)."""
    built = []
    init = BoundedStateSpace.__init__

    def counting_init(self, net, box):
        built.append(box)
        init(self, net, box)

    monkeypatch.setattr(BoundedStateSpace, "__init__", counting_init)
    dot = tmp_path / "graph.dot"
    assert main(["explore", str(FIXTURES / "mixed3.net"), "--box", "3", "--dot", str(dot)]) == 0
    assert built == [3]
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
        "63de3ebc0ccb67f863eed594b3e6bbe2f750e3af1aad2b22e0b7c9b156de6fa3"
    )


def test_compile_rejects_an_empty_format_list(net_path, tmp_path, capsys):
    base = tmp_path / "formula"
    assert main(["compile", net_path, "--out", str(base), "--formats", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --formats ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "swap.net"]


def test_compile_writes_each_format_once(net_path, tmp_path, capsys):
    base = tmp_path / "formula"
    code = main(["compile", net_path, "--out", str(base), "--formats", "text,json,text"])
    assert code == 0
    wrote = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("wrote ")]
    assert wrote == [f"wrote {base}.mrf", f"wrote {base}.json"]


def test_compile_checks_the_output_directory_first(net_path, tmp_path, capsys):
    base = tmp_path / "missing" / "formula"
    assert main(["compile", net_path, "--out", str(base)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was compiled
    assert captured.err.startswith("error: output directory ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("problem", ["missing directory", "is a directory"])
@pytest.mark.parametrize(
    "command", ["check-mutual", "eval", "explore --dot", "explore --json", "compile"]
)
def test_output_paths_are_checked_before_any_work(net_path, tmp_path, capsys, command, problem):
    missing = tmp_path / "missing"
    out = str(missing / "out")
    expected = f"error: output directory {str(missing)!r} does not exist\n"
    if problem == "is a directory":
        out = str(tmp_path / "out")
        # compile writes out + suffix, so make the asked-for .smt2 a directory
        bad = out + ".smt2" if command == "compile" else out
        Path(bad).mkdir()
        expected = f"error: output path {bad!r} is a directory\n"
    if command == "check-mutual":
        argv = ["check-mutual", net_path, "--x", "2 0", "--y", "0 2", "--witness-out", out]
    elif command == "eval":
        base = tmp_path / "formula"
        main(["compile", net_path, "--out", str(base), "--formats", "text"])
        argv = ["eval", f"{base}.mrf", "--box", "2", "--csv", out]
    elif command == "compile":
        argv = ["compile", net_path, "--out", out, "--formats", "text,smtlib"]
    else:
        argv = ["explore", net_path, "--box", "2", command.split()[1], out]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == expected


@pytest.mark.parametrize("net, x, bound", [
    ("mixed3", "1 0 0", "9^5^7 = 9^78125"),
    ("consumer", "1", "3^3^3 = 3^27 = 7625597484987"),
])
def test_exact_bound_banner_prints_small_values_only(capsys, net, x, bound):
    assert main(["check-mutual", str(FIXTURES / f"{net}.net"), "--x", x, "--y", x]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"exact state-norm bound for certified completeness: {bound}"


@pytest.mark.parametrize("flag, value, what", [
    ("--max-states", "0", "a positive integer"),
    ("--max-unfoldings", "-1", "a non-negative integer"),
    ("--state-bound", "0", "a positive integer"),
    ("--cycle-len", "-1", "a non-negative integer"),
])
def test_compile_rejects_limits_that_give_silent_answers(net_path, tmp_path, capsys, flag, value,
                                                         what):
    base = tmp_path / "formula"
    assert main(["compile", net_path, "--out", str(base), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: mutreach compile")
    assert captured.err.endswith(f"error: argument {flag}: expected {what}, got {value!r}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "swap.net"]


def test_check_mutual_checks_its_limits_before_printing(capsys):
    net = str(FIXTURES / "token_swap.net")
    assert main(["check-mutual", net, "--x", "1 0", "--y", "0 1", "--max-states", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --max-states: expected a positive integer, got '0'\n"
    )


@pytest.mark.parametrize("command", ["eval", "explore", "check-mutual"])
def test_negative_box_exits_one(net_path, tmp_path, capsys, command):
    if command == "eval":
        base = tmp_path / "formula"
        main(["compile", net_path, "--out", str(base), "--formats", "text"])
        argv = ["eval", f"{base}.mrf", "--box", "-1"]
    elif command == "explore":
        argv = ["explore", net_path, "--box", "-1"]
    else:
        argv = ["check-mutual", net_path, "--x", "2 0", "--y", "0 2", "--box", "-1"]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --box: expected a non-negative integer, got '-1'" in captured.err


def test_explore_list_limit_must_be_non_negative(capsys):
    net = str(FIXTURES / "token_swap.net")
    assert main(["explore", net, "--box", "3"]) == 0
    out = capsys.readouterr().out
    assert "4 bottom components" in out and out.count("  bottom: ") == 4
    assert main(["explore", net, "--box", "3", "--list-limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --list-limit: expected a non-negative integer, got '-1'" in captured.err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_off_threshold_takes_exact_or_a_non_negative_integer(net_path, tmp_path, capsys, value):
    base = tmp_path / "formula"
    assert main(["compile", net_path, "--out", str(base), "--off-threshold", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: mutreach compile")
    assert captured.err.endswith(
        f"error: argument --off-threshold: expected 'exact' or a non-negative integer, "
        f"got {value!r}\n"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "swap.net"]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector as the caller has it for one test, restored afterwards."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("case", ["compile", "unknown flag", "malformed net", "missing directory"])
def test_main_restores_the_collector(collector, net_path, tmp_path, capsys, case):
    bad = tmp_path / "bad.net"
    bad.write_text("dim x\n")
    argv = {
        "compile": ["compile", net_path, "--out", str(tmp_path / "f")],
        "unknown flag": ["compile", net_path, "--no-such-flag"],
        "malformed net": ["compile", str(bad), "--out", str(tmp_path / "f")],
        "missing directory": ["compile", net_path, "--out", str(tmp_path / "missing" / "f")],
    }[case]
    assert main(argv) == (0 if case == "compile" else 1)
    assert gc.isenabled() is collector


def test_main_restores_the_collector_when_a_command_raises(collector, net_path, monkeypatch):
    seen = []

    def failing(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_explore", failing)
    with pytest.raises(RuntimeError, match="boom"):
        main(["explore", net_path, "--box", "2"])
    assert seen == [False]  # the command ran with the collector paused
    assert gc.isenabled() is collector


def _cyclic_garbage(argv) -> int:
    """The objects one `main(argv)` leaves that only the cyclic collector
    frees: run with the collector off, then counted by one collection."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        main(argv)
    finally:
        found = gc.collect()
        if enabled:
            gc.enable()
    return found


def test_no_command_leaves_cyclic_garbage_that_grows_with_its_work(tmp_path, capsys):
    """`main` pauses the collector, which is safe only while a command's
    data holds no reference cycles.  Each pair below runs one command at a
    small and a larger size: a cycle per unfolding, disjunct, tuple or
    configuration would make the larger run leave more garbage.  The counts
    are compared with each other, not with a constant, because the
    constant (the argument parser's own cycles) depends on the Python
    version."""
    mixed3 = str(FIXTURES / "mixed3.net")
    formula = str(tmp_path / "m")
    assert main(["compile", mixed3, "--formats", "text", "--out", formula]) == 0
    pairs = [
        [["compile", mixed3, "--mode", mode, "--state-bound", bound, "--out", str(tmp_path / mode)]
         for bound in ("3", "5")]
        for mode in ("mutual", "bottom")
    ]
    pairs.append([["eval", formula + ".mrf", "--box", box] for box in ("1", "2")])
    pairs.append([["explore", mixed3, "--box", box] for box in ("6", "12")])
    for small, large in pairs:
        _cyclic_garbage(small)  # warm-up: first-call caches are no garbage
        assert _cyclic_garbage(small) == _cyclic_garbage(large), small
    capsys.readouterr()
