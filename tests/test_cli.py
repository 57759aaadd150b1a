import json
from pathlib import Path

import pytest

from mutreach.cli import main
from mutreach.net import format_net, load_net
from mutreach.witnessio import verify_witness

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
    verify_witness(net, out.read_text())


def test_check_mutual_trivial_pair(net_path, capsys):
    code = main(["check-mutual", net_path, "--x", "1 1", "--y", "1 1"])
    assert code == 0
    assert "mutual (certified)" in capsys.readouterr().out


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


def test_usage_errors_exit_one(tmp_path):
    assert main(["no-such-command"]) == 1
    assert main(["check-mutual", str(tmp_path / "missing.net"), "--x", "1", "--y", "2"]) == 1
    bad = tmp_path / "bad.net"
    bad.write_text("dim x\n")
    assert main(["check-mutual", str(bad), "--x", "1", "--y", "2"]) == 1


def test_check_mutual_rejects_workers_flag(capsys):
    # --workers shards compilation only; check-mutual has no use for it
    code = main(
        ["check-mutual", str(FIXTURES / "token_swap.net"),
         "--x", "1 0", "--y", "0 1", "--workers", "7"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: unrecognized arguments: --workers 7" in captured.err


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


def test_eval_malformed_formula_exits_one(net_path, tmp_path, capsys):
    base = tmp_path / "formula"
    for mode in ("mutual", "bottom"):
        main(["compile", net_path, "--mode", mode, "--out", str(base), "--formats", "text"])
    mrf = (tmp_path / "formula.mrf").read_text().splitlines(keepends=True)
    btf = (tmp_path / "formula.btf").read_text().splitlines(keepends=True)
    cases = [
        ("cut.mrf", "".join(mrf[:12]), ["--pair", "1 0 / 0 1"]),
        ("cut.btf", "".join(btf[:9]), ["--point", "1 1"]),
        ("junk.btf", "kind bottom\ndim 2\nfoo\n", ["--point", "1 1"]),
    ]
    capsys.readouterr()
    for name, text, query in cases:
        path = tmp_path / name
        path.write_text(text)
        assert main(["eval", str(path), *query]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, name


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


def test_eval_bottom_enumeration_can_be_inconclusive(net_path, tmp_path, capsys):
    base = tmp_path / "bottom"
    main(["compile", net_path, "--mode", "bottom", "--out", str(base)])
    capsys.readouterr()
    # a point only the empty-index tuple matches (and large enough to
    # pass its pumping membership): the lattice is infinite and the
    # nearest counterexample to the universal sits beyond the scanned
    # radius, so enumeration reports '?' with exit code 2
    code = main(["eval", str(base) + ".btf", "--point", "50 50", "--method", "enumerate"])
    out = capsys.readouterr().out
    assert code == 2
    assert "50 50,?" in out
    # the exact method finds that counterexample and decides
    code = main(["eval", str(base) + ".btf", "--point", "50 50", "--method", "exact"])
    out = capsys.readouterr().out
    assert code == 0
    assert "50 50,0" in out


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


def test_workers_flag_deterministic(net_path, tmp_path):
    base1 = tmp_path / "w1"
    base2 = tmp_path / "w2"
    main(["compile", net_path, "--mode", "mutual", "--out", str(base1), "--workers", "1"])
    main(["compile", net_path, "--mode", "mutual", "--out", str(base2), "--workers", "2"])
    assert (tmp_path / "w1.mrf").read_bytes() == (tmp_path / "w2.mrf").read_bytes()
