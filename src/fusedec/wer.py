"""Word error rate with a deletion/insertion/substitution breakdown."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class WerBreakdown:
    """Edit counts from one optimal alignment, plus the reference length.

    With an empty reference the rate is 0 when the hypothesis is empty too,
    infinite otherwise.
    """

    deletions: int
    insertions: int
    substitutions: int
    ref_count: int

    def __post_init__(self):
        for name in ("deletions", "insertions", "substitutions", "ref_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def errors(self) -> int:
        return self.deletions + self.insertions + self.substitutions

    @property
    def wer(self) -> float:
        if self.ref_count == 0:
            return 0.0 if self.errors == 0 else float("inf")
        return self.errors / self.ref_count


def align_wer(ref: Sequence[str], hyp: Sequence[str]) -> WerBreakdown:
    """Unit-cost Levenshtein alignment of a hypothesis against a reference.

    Among alignments of equal total cost, the one with the fewest
    insertion-deletion pairs wins, i.e. substitutions are preferred.  That
    pins down the breakdown completely: the deletion-insertion difference is
    fixed by the length gap, so cost and pair count determine all three
    counts.
    """
    n, m = len(ref), len(hyp)
    # dp holds (cost, insertions + deletions), minimized lexicographically.
    prev = [(j, j) for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [(i, i)] + [(0, 0)] * m
        for j in range(1, m + 1):
            sub = 0 if ref[i - 1] == hyp[j - 1] else 1
            diag = (prev[j - 1][0] + sub, prev[j - 1][1])
            dele = (prev[j][0] + 1, prev[j][1] + 1)
            ins = (cur[j - 1][0] + 1, cur[j - 1][1] + 1)
            cur[j] = min(diag, dele, ins)
        prev = cur
    cost, pairs = prev[m]
    gap = n - m
    deletions = (pairs + gap) // 2
    insertions = (pairs - gap) // 2
    return WerBreakdown(deletions, insertions, cost - pairs, n)


def corpus_wer(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> WerBreakdown:
    """Corpus-level rate: counts summed over utterances before dividing.

    Each distinct ``(ref, hyp)`` pair, compared as tuples, is aligned once
    per call, and its breakdown is added once per occurrence: a sweep point
    whose utterances mostly decode alike pays for few alignments.  Nothing
    is kept between calls.
    """
    if not pairs:
        raise ValueError("corpus_wer needs at least one (ref, hyp) pair")
    aligned: dict[tuple[tuple[str, ...], tuple[str, ...]], WerBreakdown] = {}
    d = i = s = r = 0
    for ref, hyp in pairs:
        key = (tuple(ref), tuple(hyp))
        b = aligned.get(key)
        if b is None:
            b = aligned[key] = align_wer(ref, hyp)
        d += b.deletions
        i += b.insertions
        s += b.substitutions
        r += b.ref_count
    return WerBreakdown(d, i, s, r)
