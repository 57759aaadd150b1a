"""Threshold extractors and execution shortening by removing cycles.

An extractor is a non-decreasing ladder of thresholds classifying
coordinates as small or large.  Shortening walks an execution, keeps the
region where all tracked coordinates stay small, removes repeats there,
and recurses on the surviving small coordinates; the result fires from
the same source, agrees with the target on the extracted coordinates,
and keeps the other coordinates provably large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from mutreach.net import Action, Blocked, PetriNet, fire
from mutreach.vectors import Vec, restrict, vec


class ExtractionError(ValueError):
    pass


@dataclass(frozen=True)
class Extractor:
    """Thresholds lambda_0 <= ... <= lambda_{d+1}, all positive."""

    thresholds: tuple[int, ...]

    def __post_init__(self):
        ts = tuple(int(t) for t in self.thresholds)
        if len(ts) < 2:
            raise ExtractionError("an extractor needs at least lambda_0 and lambda_1")
        if any(t <= 0 for t in ts):
            raise ExtractionError("thresholds must be positive")
        if any(a > b for a, b in zip(ts, ts[1:])):
            raise ExtractionError("thresholds must be non-decreasing")
        object.__setattr__(self, "thresholds", ts)

    @property
    def dim(self) -> int:
        return len(self.thresholds) - 2

    def __getitem__(self, n: int) -> int:
        return self.thresholds[n]

    def is_m_adapted(self, m: int) -> bool:
        return all(
            self.thresholds[n + 1] >= self.thresholds[n] + m * self.thresholds[n] ** n
            for n in range(len(self.thresholds) - 1)
        )


def minimal_m_adapted(dim: int, m: int, base: int = 1) -> Extractor:
    """The tightest m-adapted ladder starting at lambda_0 = base."""
    ts = [base]
    for n in range(dim + 1):
        ts.append(ts[-1] + m * ts[-1] ** n)
    return Extractor(tuple(ts))


def reference_extractor(dim: int, m: int) -> Extractor:
    """The canonical ladder lambda_{n+1} = m sum_{j<=n} lambda_j^j
    + m lambda_n^{3n} (3 d lambda_n^n m)^d, starting at 1.

    Exact big-integer thresholds; m-adapted by construction, with the
    top threshold dominated by (3 d m)^((d+2)^(2d+1)).
    """
    if dim < 1 or m < 1:
        raise ExtractionError("dimension and norm must be >= 1")
    ts = [1]
    for n in range(dim + 1):
        lam_n = ts[-1]
        ts.append(
            m * sum(ts[j] ** j for j in range(1, n + 1))
            + m * lam_n ** (3 * n) * (3 * dim * lam_n**n * m) ** dim
        )
    ext = Extractor(tuple(ts))
    assert ext.is_m_adapted(m)
    return ext


def power_dominates(base: int, exponent: int, value: int) -> bool:
    """Whether base**exponent >= value, without forming the huge power
    when bit-length reasoning already settles it."""
    if value <= 0:
        return True
    if base <= 1:
        return base**exponent >= value
    low_bits = exponent * (base.bit_length() - 1)
    if low_bits >= value.bit_length():
        return True  # base^e >= 2^low_bits >= 2^bits(value) > value
    return base**exponent >= value


def maximal_small_set(
    lam: Extractor, index_set: Iterable[int], configs: Iterable[Vec]
) -> tuple[int, ...]:
    """The unique maximal J inside I with every c(j) < lambda_{|J|}.

    Downward fixpoint from J = I; agrees with the brute-force maximum
    over all subsets because small sets are closed under union.
    """
    cs = [vec(c) for c in configs]
    if not cs:
        raise ExtractionError("configuration set must be non-empty")
    j = tuple(sorted(set(index_set)))
    while True:
        cap = lam[len(j)]
        nxt = tuple(i for i in j if all(c[i] < cap for c in cs))
        if nxt == j:
            return j
        j = nxt


def extract_along_word(
    lam: Extractor, index_set: Iterable[int], configs: Sequence[Vec]
) -> tuple[int, ...]:
    """Left fold of single-configuration extraction along the word."""
    j = tuple(sorted(set(index_set)))
    for c in configs:
        j = maximal_small_set(lam, j, (c,))
    return j


def fire_trace(x: Vec, word: Sequence[Action]) -> list[Vec]:
    """All intermediate configurations c0..ck of a successful firing."""
    out = [vec(x)]
    for a in word:
        out.append(fire(out[-1], (a,)))
    return out


@dataclass(frozen=True)
class Execution:
    """Configurations c_0..c_k with c_{j-1} firing to c_j by the word."""

    configs: tuple[Vec, ...]
    word: tuple[Action, ...]

    def __post_init__(self):
        cs = tuple(vec(c) for c in self.configs)
        ws = tuple(self.word)
        if not cs:
            raise ExtractionError("executions are non-empty")
        if len(cs) != len(ws) + 1:
            raise ExtractionError("need one configuration per step plus the source")
        for j, a in enumerate(ws):
            try:
                nxt = fire(cs[j], (a,))
            except Blocked as exc:
                raise ExtractionError(f"step {j + 1} does not fire") from exc
            if nxt != cs[j + 1]:
                raise ExtractionError(f"step {j + 1} lands on {nxt}, not {cs[j + 1]}")
        object.__setattr__(self, "configs", cs)
        object.__setattr__(self, "word", ws)

    @classmethod
    def from_word(cls, source: Vec, word: Sequence[Action]) -> "Execution":
        return cls(tuple(fire_trace(source, word)), tuple(word))

    @property
    def src(self) -> Vec:
        return self.configs[0]

    @property
    def tgt(self) -> Vec:
        return self.configs[-1]


@dataclass
class ShorteningResult:
    word: tuple[Action, ...]
    final: Vec
    extracted: tuple[int, ...]
    kept_positions: tuple[int, ...]  # 0-based positions into the input word


def chunk_boundaries(kept: Sequence[int], length: int) -> list[tuple[int, int]]:
    """Config-index ranges (lo, hi) of the removed chunks around the kept
    actions: chunk j spans configurations lo..hi of the original run."""
    out = []
    prev = 0
    for p in kept:
        out.append((prev, p))
        prev = p + 1
    out.append((prev, length))
    return out


def rackoff_shorten(net: PetriNet, execution: Execution, lam: Extractor) -> ShorteningResult:
    """Shorten an execution by removing I-cycles, I the extraction of the
    whole run.  The output word fires from the source, has length at most
    d * lambda_d^d, matches the target on I, and keeps every coordinate
    off I at least lambda_{|I|+1} - m * sum_{j<=|I|} lambda_j^j."""
    d = net.dim
    if lam.dim != d:
        raise ExtractionError(f"extractor dimension {lam.dim} != net dimension {d}")
    if not lam.is_m_adapted(net.norm):
        raise ExtractionError("extractor is not m-adapted for this net")
    full = tuple(range(d))
    extracted = extract_along_word(lam, full, execution.configs)

    kept = _shorten_positions(execution.configs, list(range(len(execution.word))), full, lam)
    word = tuple(execution.word[p] for p in kept)
    final = fire(execution.src, word)

    # Every removed chunk is a cycle on the extracted coordinates.
    for lo, hi in chunk_boundaries(kept, len(execution.word)):
        assert restrict(execution.configs[lo], extracted) == restrict(
            execution.configs[hi], extracted
        ), "removed chunk is not a cycle on the extracted coordinates"
    return ShorteningResult(
        word=word, final=final, extracted=extracted, kept_positions=tuple(kept)
    )


def _shorten_positions(
    configs: Sequence[Vec], positions: list[int], dims: tuple[int, ...], lam: Extractor
) -> list[int]:
    """Kept positions of the residual word whose actions sit at `positions`.

    Only coordinates in `dims` are inspected, and splices always remove
    runs with zero displacement on `dims`, so projections of the original
    configurations stay valid for the residual run throughout.
    """
    if not positions:
        return []
    if not dims:
        return []

    def config_at(n: int) -> Vec:
        return configs[positions[n]] if n < len(positions) else configs[-1]

    # Remove the leftmost repeated dims-projection inside the prefix where
    # every dims coordinate stays below the full threshold, then rescan.
    while True:
        h = 0
        for n in range(len(positions) + 1):
            if maximal_small_set(lam, dims, (config_at(n),)) == dims:
                h = n + 1
            else:
                break
        seen: dict[Vec, int] = {}
        cut = None
        for n in range(min(h, len(positions) + 1)):
            pr = restrict(config_at(n), dims)
            if pr in seen:
                cut = (seen[pr], n)
                break
            seen[pr] = n
        if cut is None:
            break
        del positions[cut[0] : cut[1]]

    h = 0
    smalls: tuple[int, ...] | None = None
    for n in range(len(positions) + 1):
        nxt = maximal_small_set(lam, dims, (config_at(n),))
        if nxt == dims:
            h = n + 1
        else:
            smalls = nxt
            break
    if smalls is None:
        return positions
    head, tail = positions[:h], positions[h:]
    if not tail:
        return head
    return head + _shorten_positions(configs, tail, smalls, lam)
