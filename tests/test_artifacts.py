"""The compiled artifacts are the behavioural contract.

Digests of `mutreach compile` output for the four fixtures at default
settings, for mixed3 at state bound 5 (the scaled setting, where many
unfoldings share one circulation system), and for the benchmark's ring3
net at default settings (the only net whose bottom lattices have rank 2).  A change that alters
these bytes on purpose updates the digests here and says why in
CHANGES.md.  The `.smt2` digests last changed when negative integers
became `(- n)` terms: SMT-LIB numerals are non-negative, and a strict
parser reads a bare `-1` as a symbol.  The ring3 digests last changed
when lattice pairs came to be read off the Hermite normal form alone:
ring3's totals equality, written `pair 0 : 1 1 1` before, is now
`pair 0 : -1 -1 -1`, the sign every other equality here already had,
because the sign no longer depends on the order of the generators.
"""

import hashlib
import re
from pathlib import Path

import pytest

from mutreach.cli import main
from mutreach.presburger import bottom_from_text, bottom_to_text, mutual_from_text, mutual_to_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RING3 = FIXTURES.parent / "perfbench" / "nets" / "ring3.net"

DIGESTS = {
    "token_swap-mutual.json": "ccbff5fe39c320ad70ac2d0d73f98c60f6c1c79420595cc91352d2062563ab39",
    "token_swap-mutual.mrf": "ba51f74b34dbe49de8ca4143fecff95ada7271a5a281723e46d699c71cb05879",
    "token_swap-mutual.smt2": "266b455ef1a1f1b578bc1eeebf293dfe33263b0a50053e6742aab6ef2339a91e",
    "token_swap-bottom.btf": "90ec6615a3946d8f1edfff92bb3dec738baa1c3be4513d2be5180dec3b32ef2b",
    "token_swap-bottom.json": "7e44f2c6460e4f951de1d23a11d2df6351944a3271974a66ec1b8e3d3671a647",
    "token_swap-bottom.smt2": "d5a3b9ade000135403f1a991d2134a0542548592cb247ad3ce8a1b263c0e59fc",
    "consumer-mutual.json": "cbe22481170170954154af80f8670d40035ed00e70dfdc5592c6df05f3f18a0f",
    "consumer-mutual.mrf": "e9c64ff355fa634bb7f6c6ea8b46a40252d56784e2128e6b081b20582d8759e1",
    "consumer-mutual.smt2": "2ddf5b90c4cd563f8273b56d80b243a44909ab7f5b6108b75b1c1822cee0eeeb",
    "consumer-bottom.btf": "0a29b50e49656e32afbf3ab09efc3d2951b6617d806d07d1a810026b231f3a45",
    "consumer-bottom.json": "4b41044a6503def602ea75c11e2d2f8a033eaee3e1273a03a784c9a5d6838999",
    "consumer-bottom.smt2": "286dd7b6b3a5a9b115344d9ebb27767a37c64385a81416541b7831dfddf2f808",
    "ring-mutual.json": "fac75e1a20e1ec9f2e730a1e1a4bb88a64924f458a1b8c2e5ace688c8765dda2",
    "ring-mutual.mrf": "904b64ab7237afc4bc67ccad85c8441eb210c9c8c4fadc0069e429e3495710d7",
    "ring-mutual.smt2": "c4a6232d79a93038f408f3051fa9642ebe3230e2bfcf6876cc967d8b8b260a75",
    "ring-bottom.btf": "85f322d7db7b980f63f6e5daf648e970211c11540cdc465257cffbf10245aadb",
    "ring-bottom.json": "8804d73d27532abef878eab6adfe192087f12863f3c0649e1b5a9950bd7f5be4",
    "ring-bottom.smt2": "4f5a9eafb6e75936773c4e4c5ad33ad07f7303440b4a3d1c8adef13d00e8bf36",
    "mixed3-mutual.json": "274d6c769578d8e0431b4ced2cac7e1638811a420eb2ddc957803509cdfc473e",
    "mixed3-mutual.mrf": "dbc61837495342c2e0487e3f3b6eb387e4cced325d8e4b42a8d877a69b94dccd",
    "mixed3-mutual.smt2": "7dd43da6689167ae5b23fee09c8b9894be065e7a066eb83a7c17adcb381644d5",
    "mixed3-bottom.btf": "83f83ab8a39ef5337c9423da0b316036bfa567e7ea50836d19427c5f78b68572",
    "mixed3-bottom.json": "b495cfd8cde18acca298796fb7ca0323077c40857171bf0e9967294d9d07c8da",
    "mixed3-bottom.smt2": "15e420694ab6298a7b8f3aae236cad20c959a28daa71aa7d18ac5745c8d31896",
}

SCALED_DIGESTS = {
    "mixed3-sb5-mutual.json": "d7607d6a31c2f2a0220b148910da761adbbdbcb89dae8a32a01aed45ec2e2ab8",
    "mixed3-sb5-mutual.mrf": "b2f8a7036ec6852a9c82f19a2f876d312d02e15b9c7cf3ce99450c05a0356224",
    "mixed3-sb5-mutual.smt2": "dece7fbe6aef41537b2f5375ac4cf6da0693923cbf7f973a971253c06121efc3",
    "mixed3-sb5-bottom.btf": "c8cd20c4583162f944cee4a72d4d57e3008270fc28bcc3dea7f5945ac997e3be",
    "mixed3-sb5-bottom.json": "53820088ba53cbc499a9e48970802c319a9cb5e8b0991c09b64a926ff0703367",
    "mixed3-sb5-bottom.smt2": "b92e16c346f1f4a6dbf5f786712247af98088f1ac2344a8d79d518a47669c072",
}

RING3_DIGESTS = {
    "ring3-mutual.json": "e645b1f4d2748fa0f7b9b18b642a387f13bebb82bd44fe33791d06828b2f4ff0",
    "ring3-mutual.mrf": "8ecc191e016686b156534de053fc050ebd049958ef9a51a28d38d8b74478a771",
    "ring3-mutual.smt2": "67e89c008af9a706b60fa4d2d4475953e0069acaae4b8751b806dc8a3783dc69",
    "ring3-bottom.btf": "92eda96fbef3895898f749c1f982fd9b52dd2c8bd19bf8a7fe72f8ec14efcfc6",
    "ring3-bottom.json": "2f1057795a22aa82c206ff9353cb0f6d103caccf054c1eaadcb30e194181f0eb",
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
