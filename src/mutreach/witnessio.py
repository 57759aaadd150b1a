"""Text serialization of mutual-reachability witnesses.

The format spells out the unfolding, one pumping block per
configuration, one coset block per ordered pair, and any synthesized
words; `verify_witness` re-validates everything from scratch so a stored
witness is a checkable certificate.
"""

from __future__ import annotations

from .net import PetriNet, fire
from .unfolding import validate_unfolding
from .vectors import vec
from .witness import MutualWitness, PumpingParams, check_witness


def witness_to_text(w: MutualWitness) -> str:
    lines = ["witness", f"dim {w.unfolding.net.dim}"]
    lines.append("index-set " + " ".join(map(str, w.unfolding.index_set)))
    lines.append(f"state-bound {w.params.state_bound}")
    lines.append(f"cycle-len {w.params.cycle_len}")
    off = "exact" if w.params.off_threshold is None else str(w.params.off_threshold)
    lines.append(f"off-threshold {off}")
    lines.append(f"certified {int(w.certified)}")
    lines.append(f"within-bound {int(w.within_state_bound)}")
    for s in w.unfolding.states:
        lines.append("state " + " ".join(map(str, s)))
    for p, a, q in w.unfolding.transitions:
        lines.append(
            "trans " + " ".join(map(str, p)) + f" | {a} | " + " ".join(map(str, q))
        )
    for c in w.configs:
        lines.append("config " + " ".join(map(str, c)))
    for p in w.pumps:
        lines.append("pump " + " ".join(map(str, p.config)))
        lines.append("  enter " + " ".join(map(str, p.enter_word)))
        lines.append("  leave " + " ".join(map(str, p.leave_word)))
        lines.append("  cminus " + " ".join(map(str, p.c_minus)))
        lines.append("  cplus " + " ".join(map(str, p.c_plus)))
        lines.append("  basis " + " ".join(map(str, p.basis_vector)))
    for pc in w.pairs:
        lines.append(
            "coset "
            + " ".join(map(str, pc.source))
            + " -> "
            + " ".join(map(str, pc.target))
            + " : "
            + " ".join(map(str, pc.offset))
        )
    for (x, y), word in sorted(w.words.items()):
        lines.append(
            "word "
            + " ".join(map(str, x))
            + " -> "
            + " ".join(map(str, y))
            + " : "
            + " ".join(map(str, word))
        )
    lines.append("end")
    return "\n".join(lines) + "\n"


_HEADER = ("dim", "state-bound", "cycle-len", "certified", "within-bound")
_KEYS = _HEADER + ("index-set", "off-threshold", "state", "trans", "config", "word")
# pump and coset blocks are certificates: the checker recomputes them, and
# the whole file must then read as the recomputed witness renders
_RECOMPUTED = ("pump", "enter", "leave", "cminus", "cplus", "basis", "coset")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


def witness_from_text(net: PetriNet, text: str) -> MutualWitness:
    """Rebuild a witness by re-running the checker on the stored data.

    Stored pump/coset blocks are certificates; the checker recomputes
    them, so parsing accepts a witness only if it still validates and its
    lines up to `end` read exactly as the recomputed witness renders.  A
    line that does not parse raises ValueError naming its number and key,
    and the first line that differs from the rendering names its number.
    """
    lines = [(n, ln.rstrip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != "witness":
        raise ValueError("not a witness file")
    index_set: tuple[int, ...] = ()
    header = {"state-bound": 1, "cycle-len": 0, "off-threshold": None}
    states = []
    transitions = []
    configs = []
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
                index_set = _ints(val)
            elif key in _HEADER:
                (header[key],) = _ints(val)
                if key == "dim" and header[key] != net.dim:
                    raise ValueError
            elif key == "off-threshold":
                header[key] = None if val == "exact" else int(val)
            elif key == "state":
                states.append(vec(_ints(val)))
            elif key == "trans":
                p_text, a_text, q_text = val.split("|")
                transitions.append((vec(_ints(p_text)), int(a_text), vec(_ints(q_text))))
            elif key == "config":
                configs.append(vec(_ints(val)))
            elif key == "word":
                arrow, word_text = val.split(":")
                x_text, y_text = arrow.split("->")
                word = _ints(word_text)
                if not all(0 <= a < len(net.actions) for a in word):
                    raise ValueError
                words[(vec(_ints(x_text)), vec(_ints(y_text)))] = word
        except ValueError:
            raise ValueError(f"line {lineno}: malformed {key!r}: {line.strip()!r}") from None
    g = validate_unfolding(net, index_set, states, transitions)
    params = PumpingParams(
        state_bound=header["state-bound"],
        cycle_len=header["cycle-len"],
        off_threshold=header["off-threshold"],
    )
    w = check_witness(net, configs, g, params)
    object.__setattr__(w, "words", words)
    stored = lines[: end + 1]
    for k, want in enumerate(witness_to_text(w).splitlines()):
        if k == len(stored) or stored[k][1].strip() != want.strip():
            lineno = stored[k][0] if k < len(stored) else stored[-1][0] + 1
            raise ValueError(f"line {lineno}: differs from the recomputed {want.strip()!r}")
    return w


def verify_witness(net: PetriNet, text: str) -> MutualWitness:
    """Full re-validation: unfolding, witness conditions, and that every
    stored word fires between its endpoints."""
    w = witness_from_text(net, text)
    for (x, y), word in w.words.items():
        if fire(x, net.word(word)) != y:
            raise ValueError(f"stored word for {x} -> {y} does not fire")
    return w
