"""The compiled artifacts are the behavioural contract.

Digests of `mutreach compile` output for the four fixtures at default
settings, for mixed3 at state bound 5 (the scaled setting, where many
unfoldings share one circulation system), and for the benchmark's ring3
net at default settings (the only net whose bottom lattices have rank 2),
and for the mutual texts of the 4-counter `two_pairs` and `ring4`
fixtures at state bound 3 (CI's 4-counter step also checks the first).
The ring4 digest was recorded before the compile pass came to decide
each edge shape once for all its index sets, the change that moved its
LP count most.  A change that alters
these bytes on purpose updates the digests here and says why in
CHANGES.md.  The `.smt2` digests last changed when negative integers
became `(- n)` terms: SMT-LIB numerals are non-negative, and a strict
parser reads a bare `-1` as a symbol.  The ring3 digests last changed
when lattice pairs came to be read off the Hermite normal form alone:
ring3's totals equality, written `pair 0 : 1 1 1` before, is now
`pair 0 : -1 -1 -1`, the sign every other equality here already had,
because the sign no longer depends on the order of the generators.
The `.btf` and bottom `.json` digests last changed when a bottom tuple
came to be stored once, as its implications: the `phi` line and JSON key
rendered from them and the unread `offset` lines were dropped, and phi
is now rendered only in the `.smt2` export, whose bytes did not change.
"""

import hashlib
import re
from pathlib import Path

import pytest

from mutreach.cli import main
from mutreach.presburger import bottom_from_text, bottom_to_text, mutual_from_text, mutual_to_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RING3 = FIXTURES.parent / "perfbench" / "nets" / "ring3.net"

# the 4-counter fixture's mutual text, the LP-heaviest compile here: its
# support LPs fail and are cut (about 1.6-1.9 s at state bound 3)
TWO_PAIRS_MRF = "508b30e0b1f70d449903de515eb798e76cb47c1a87124eb171d794fb3f1319ab"

# ring4's mutual text at state bound 3, 37 756 disjuncts (about 2 s)
RING4_MRF = "61455c1bd0dc4dea086b5a5d53cb98c1c07339f15a5e7d45cb621b60d41c77b3"

DIGESTS = {
    "token_swap-mutual.json": "ccbff5fe39c320ad70ac2d0d73f98c60f6c1c79420595cc91352d2062563ab39",
    "token_swap-mutual.mrf": "ba51f74b34dbe49de8ca4143fecff95ada7271a5a281723e46d699c71cb05879",
    "token_swap-mutual.smt2": "266b455ef1a1f1b578bc1eeebf293dfe33263b0a50053e6742aab6ef2339a91e",
    "token_swap-bottom.btf": "7b838fbb5af1eeb9afd9f7f076cae8f209b2bcd2202fa83e4666fb4570e7dcf4",
    "token_swap-bottom.json": "a867ead38f5043ca27ff98503d8e70fb4fc3f013f5514ab7454498e757fcb90a",
    "token_swap-bottom.smt2": "d5a3b9ade000135403f1a991d2134a0542548592cb247ad3ce8a1b263c0e59fc",
    "consumer-mutual.json": "cbe22481170170954154af80f8670d40035ed00e70dfdc5592c6df05f3f18a0f",
    "consumer-mutual.mrf": "e9c64ff355fa634bb7f6c6ea8b46a40252d56784e2128e6b081b20582d8759e1",
    "consumer-mutual.smt2": "2ddf5b90c4cd563f8273b56d80b243a44909ab7f5b6108b75b1c1822cee0eeeb",
    "consumer-bottom.btf": "9c3f72bd7979eb18886462fa8798753211cd42f13394081539c01825a6602478",
    "consumer-bottom.json": "8cf23b41b76130c2782d12d38be0a2e1a79ca3fc418eca57766fe210a2ea98b2",
    "consumer-bottom.smt2": "286dd7b6b3a5a9b115344d9ebb27767a37c64385a81416541b7831dfddf2f808",
    "ring-mutual.json": "fac75e1a20e1ec9f2e730a1e1a4bb88a64924f458a1b8c2e5ace688c8765dda2",
    "ring-mutual.mrf": "904b64ab7237afc4bc67ccad85c8441eb210c9c8c4fadc0069e429e3495710d7",
    "ring-mutual.smt2": "c4a6232d79a93038f408f3051fa9642ebe3230e2bfcf6876cc967d8b8b260a75",
    "ring-bottom.btf": "746375b618257836eca9feca85cb0100833487b43048db50289f455bbe1d2319",
    "ring-bottom.json": "f4ce59f612d98ed418ad84b324a9674f04092c45a03c0b364f25e35368251e91",
    "ring-bottom.smt2": "4f5a9eafb6e75936773c4e4c5ad33ad07f7303440b4a3d1c8adef13d00e8bf36",
    "mixed3-mutual.json": "274d6c769578d8e0431b4ced2cac7e1638811a420eb2ddc957803509cdfc473e",
    "mixed3-mutual.mrf": "dbc61837495342c2e0487e3f3b6eb387e4cced325d8e4b42a8d877a69b94dccd",
    "mixed3-mutual.smt2": "7dd43da6689167ae5b23fee09c8b9894be065e7a066eb83a7c17adcb381644d5",
    "mixed3-bottom.btf": "29db40923a79239542057db732b3c6b2190d3960abf2c2f7a2c06a22e1203543",
    "mixed3-bottom.json": "55e3abcda2823ea406f208ee5a7586be258bb67945800bd8224fda14891f568d",
    "mixed3-bottom.smt2": "15e420694ab6298a7b8f3aae236cad20c959a28daa71aa7d18ac5745c8d31896",
}

SCALED_DIGESTS = {
    "mixed3-sb5-mutual.json": "d7607d6a31c2f2a0220b148910da761adbbdbcb89dae8a32a01aed45ec2e2ab8",
    "mixed3-sb5-mutual.mrf": "b2f8a7036ec6852a9c82f19a2f876d312d02e15b9c7cf3ce99450c05a0356224",
    "mixed3-sb5-mutual.smt2": "dece7fbe6aef41537b2f5375ac4cf6da0693923cbf7f973a971253c06121efc3",
    "mixed3-sb5-bottom.btf": "1164c0d318f8dade2fa73eb079f0a49ab7a0057ea00f996da27ab41825ec5456",
    "mixed3-sb5-bottom.json": "d5ab175da198c87727e45da3ce223ca85f67d3a4b17f2222f2efe2f49cd14ce9",
    "mixed3-sb5-bottom.smt2": "b92e16c346f1f4a6dbf5f786712247af98088f1ac2344a8d79d518a47669c072",
}

RING3_DIGESTS = {
    "ring3-mutual.json": "e645b1f4d2748fa0f7b9b18b642a387f13bebb82bd44fe33791d06828b2f4ff0",
    "ring3-mutual.mrf": "8ecc191e016686b156534de053fc050ebd049958ef9a51a28d38d8b74478a771",
    "ring3-mutual.smt2": "67e89c008af9a706b60fa4d2d4475953e0069acaae4b8751b806dc8a3783dc69",
    "ring3-bottom.btf": "24646cba8164d40bb1964ac9883c8924ed09a5af13e535ee9f5827d6a584baa4",
    "ring3-bottom.json": "fc73f227b01c9274a07a4579ee302b46d9099760ac86ac1ea150ae284a97f65b",
    "ring3-bottom.smt2": "48a2395c893f084844b0b441d6073cf957278518f724765d0a73d9fba6d5296a",
}


@pytest.mark.parametrize("name", ["token_swap", "consumer", "ring", "mixed3"])
@pytest.mark.parametrize("mode", ["mutual", "bottom"])
def test_default_artifacts_are_byte_identical(name, mode, tmp_path, capsys):
    base = tmp_path / f"{name}-{mode}"
    code = main(["compile", str(FIXTURES / f"{name}.net"), "--mode", mode, "--out", str(base)])
    assert code == 0
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    expected = {k: v for k, v in DIGESTS.items() if k.startswith(f"{name}-{mode}.")}
    assert len(expected) == 3
    assert produced == expected
    # the text form parses back to a formula that renders the same bytes
    parse, render, suffix = {
        "mutual": (mutual_from_text, mutual_to_text, ".mrf"),
        "bottom": (bottom_from_text, bottom_to_text, ".btf"),
    }[mode]
    text = (tmp_path / f"{name}-{mode}{suffix}").read_text(encoding="utf-8")
    assert render(parse(text)) == text


@pytest.mark.parametrize("name", ["token_swap", "consumer", "ring", "mixed3"])
@pytest.mark.parametrize("mode", ["mutual", "bottom"])
def test_smtlib_has_no_bare_negative_literals(name, mode, tmp_path, capsys):
    """SMT-LIB numerals are non-negative and `-1` is a symbol there, so a
    negative integer must be written `(- 1)`."""
    base = tmp_path / f"{name}-{mode}"
    code = main(["compile", str(FIXTURES / f"{name}.net"), "--mode", mode,
                 "--formats", "smtlib", "--out", str(base)])
    assert code == 0
    text = (tmp_path / f"{name}-{mode}.smt2").read_text(encoding="utf-8")
    assert re.search(r"-\d", text) is None
    assert "(- 1)" in text or (name, mode) == ("consumer", "bottom")


@pytest.mark.parametrize("mode", ["mutual", "bottom"])
def test_scaled_artifacts_are_byte_identical(mode, tmp_path, capsys):
    base = tmp_path / f"mixed3-sb5-{mode}"
    code = main(["compile", str(FIXTURES / "mixed3.net"), "--mode", mode,
                 "--state-bound", "5", "--out", str(base)])
    assert code == 0
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    expected = {k: v for k, v in SCALED_DIGESTS.items() if k.startswith(f"mixed3-sb5-{mode}.")}
    assert len(expected) == 3
    assert produced == expected


@pytest.mark.parametrize("mode", ["mutual", "bottom"])
def test_ring3_artifacts_are_byte_identical(mode, tmp_path, capsys):
    base = tmp_path / f"ring3-{mode}"
    code = main(["compile", str(RING3), "--mode", mode, "--out", str(base)])
    assert code == 0
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    expected = {k: v for k, v in RING3_DIGESTS.items() if k.startswith(f"ring3-{mode}.")}
    assert len(expected) == 3
    assert produced == expected


def test_two_pairs_text_artifact_is_byte_identical(tmp_path, capsys):
    base = tmp_path / "tp"
    code = main(["compile", str(FIXTURES / "two_pairs.net"), "--state-bound", "3",
                 "--formats", "text", "--out", str(base)])
    assert code == 0
    assert "17760 disjuncts (certified)" in capsys.readouterr().out
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert produced == {"tp.mrf": TWO_PAIRS_MRF}


def test_ring4_text_artifact_is_byte_identical(tmp_path, capsys):
    base = tmp_path / "r4"
    code = main(["compile", str(FIXTURES / "ring4.net"), "--state-bound", "3",
                 "--formats", "text", "--out", str(base)])
    assert code == 0
    assert "37756 disjuncts (certified)" in capsys.readouterr().out
    produced = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert produced == {"r4.mrf": RING4_MRF}
