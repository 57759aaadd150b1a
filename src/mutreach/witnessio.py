"""Text serialization of mutual-reachability witnesses.

The format spells out the unfolding, one pumping block per
configuration, one coset block per ordered pair, and any synthesized
words.  The words are data beside the witness: `witness_to_text` takes
them, and `witness_from_text`, the one reader, returns them.  The reader
re-validates everything from scratch, replaying every stored word, so a
stored witness is a checkable certificate.
"""

from __future__ import annotations

from .net import PetriNet, fire
from .presburger import _row, _vector
from .unfolding import is_structurally_reversible, validate_unfolding
from .witness import MutualWitness, PumpingParams, check_witness


def witness_to_text(w: MutualWitness, words: dict) -> str:
    """Render the witness and the firing words, keyed by (x, y)."""
    off = "exact" if w.params.off_threshold is None else str(w.params.off_threshold)
    lines = ["witness", f"dim {w.unfolding.net.dim}", "index-set " + _row(w.unfolding.index_set),
             f"state-bound {w.params.state_bound}", f"cycle-len {w.params.cycle_len}",
             f"off-threshold {off}", f"certified {int(w.certified)}",
             f"within-bound {int(w.within_state_bound)}"]
    lines += ["state " + _row(s) for s in w.unfolding.states]
    lines += [f"trans {_row(p)} | {a} | {_row(q)}" for p, a, q in w.unfolding.transitions]
    lines += ["config " + _row(c) for c in w.configs]
    for p in w.pumps:
        lines.append("pump " + _row(p.config))
        lines.append("  enter " + _row(p.enter_word))
        lines.append("  leave " + _row(p.leave_word))
        lines.append("  cminus " + _row(p.c_minus))
        lines.append("  cplus " + _row(p.c_plus))
        lines.append("  basis " + _row(p.basis_vector))
    lines += [f"coset {_row(pc.source)} -> {_row(pc.target)} : {_row(pc.offset)}"
              for pc in w.pairs]
    lines += [f"word {_row(x)} -> {_row(y)} : {_row(word)}"
              for (x, y), word in sorted(words.items())]
    lines.append("end")
    return "\n".join(lines) + "\n"


_HEADER = ("dim", "state-bound", "cycle-len", "certified", "within-bound")
_KEYS = _HEADER + ("index-set", "off-threshold", "state", "trans", "config", "word")
# pump and coset blocks are certificates: the checker recomputes them, and
# the whole file must then read as the recomputed witness renders
_RECOMPUTED = ("pump", "enter", "leave", "cminus", "cplus", "basis", "coset")


def _fires(net: PetriNet, x, y, word) -> bool:
    try:
        return fire(x, net.word(word)) == y
    except ValueError:  # blocked, or x has the wrong dimension
        return False


def witness_from_text(net: PetriNet, text: str) -> tuple[MutualWitness, dict]:
    """Rebuild a witness and its words by re-running the checker.

    Stored pump/coset blocks are certificates; the checker recomputes
    them, so parsing accepts a witness only if its unfolding is
    structurally reversible, it still validates and its lines up to `end`
    read exactly as the recomputed witness renders.
    Every stored word must join two configurations of the `config` lines
    before it, and is replayed from its source to its target.  A line
    that does not parse raises ValueError naming its number and key, a
    word with another endpoint or that does not fire names its line, and
    the first line that differs from the rendering names its number.
    """
    lines = [(n, ln.rstrip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != "witness":
        raise ValueError("not a witness file")
    index_set: tuple[int, ...] = ()
    header = {"state-bound": 1, "cycle-len": 0, "off-threshold": None}
    states, transitions, configs = [], [], []
    words: dict = {}
    end = next((k for k, (_, line) in enumerate(lines) if line == "end"), len(lines))
    for lineno, line in lines[1:end]:
        key, _, val = line.strip().partition(" ")
        if key in _RECOMPUTED:
            continue
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "index-set":
                index_set = _vector(val, key)
            elif key in _HEADER:
                (header[key],) = _vector(val, key)
                if key == "dim" and header[key] != net.dim:
                    raise ValueError
            elif key == "off-threshold":
                header[key] = None if val == "exact" else int(val)
            elif key == "state":
                states.append(_vector(val, key))
            elif key == "trans":
                p_text, a_text, q_text = val.split("|")
                transitions.append((_vector(p_text, key), int(a_text), _vector(q_text, key)))
            elif key == "config":
                configs.append(_vector(val, key))
            elif key == "word":
                arrow, word_text = val.split(":")
                x, y = (_vector(t, key) for t in arrow.split("->"))
                word = _vector(word_text, key)
                if not all(0 <= a < len(net.actions) for a in word):
                    raise ValueError
                words[(x, y)] = word
        except ValueError:
            raise ValueError(f"line {lineno}: malformed {key!r}: {line.strip()!r}") from None
        if key == "word" and not {x, y} <= set(configs):
            raise ValueError(f"line {lineno}: word endpoint is not a config: {line.strip()!r}")
        if key == "word" and not _fires(net, x, y, word):
            raise ValueError(f"line {lineno}: word does not fire: {line.strip()!r}")
    g = validate_unfolding(net, index_set, states, transitions)
    if is_structurally_reversible(g) is None:
        raise ValueError("unfolding is not structurally reversible")
    params = PumpingParams(header["state-bound"], header["cycle-len"], header["off-threshold"])
    w = check_witness(net, configs, g, params)
    stored = lines[: end + 1]
    for k, want in enumerate(witness_to_text(w, words).splitlines()):
        if k == len(stored) or stored[k][1].strip() != want.strip():
            lineno = stored[k][0] if k < len(stored) else stored[-1][0] + 1
            raise ValueError(f"line {lineno}: differs from the recomputed {want.strip()!r}")
    return w, words
