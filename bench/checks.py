"""Correctness checks written apart from the program.

Each check recomputes a result from the benchmark's own inputs with its own
code (edit distance, segmentation, score sums) and compares it with what
fusedec returned.  The program's language-model query rule,
``ngram.score_sequence``, is the one reference taken from the package: it is
the definition the fused graph is meant to reproduce.
"""

from __future__ import annotations

import math

TOL = 1e-9


def edit_distance(ref, hyp) -> int:
    """Unit-cost Levenshtein distance between two word sequences."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def wer_problems(pairs, breakdown, where: str) -> list[str]:
    """Compare the program's corpus WER counts with a recount."""
    errors = sum(edit_distance(r, h) for r, h in pairs)
    refs = sum(len(r) for r, _ in pairs)
    got = breakdown.deletions + breakdown.insertions + breakdown.substitutions
    if (got, breakdown.ref_count) != (errors, refs):
        return [f"{where}: corpus_wer counts {got}/{breakdown.ref_count} errors/words, recount {errors}/{refs}"]
    return []


def spells(words, symbols, prons, eow: str, optional: bool) -> bool:
    """Whether the word string reads as the token symbols through the
    lexicon: each word is one of its pronunciations followed by ``eow``,
    which may be left out when boundaries are optional."""
    ends = {0}
    for word in words:
        nxt = set()
        for i in ends:
            for pron in prons.get(word, ()):
                j = i + len(pron)
                if tuple(symbols[i:j]) != pron:
                    continue
                if j < len(symbols) and symbols[j] == eow:
                    nxt.add(j + 1)
                if optional:
                    nxt.add(j)
        ends = nxt
    return len(symbols) in ends


def table_model_score(rows, tokens, eos: int) -> float:
    """Log-probability of ``tokens`` then ``eos`` read off the emission rows."""
    total = 0.0
    for k, tok in enumerate((*tokens, eos)):
        total += math.log(rows[k][tok])
    return total


def expected_total(hyp, fusion: str, lm_weight: float, lm_weight_nbest) -> float:
    """The combined cost each fusion mode promises (no coverage term)."""
    weight = {
        "none": 0.0,
        "beam": lm_weight,
        "nbest": lm_weight_nbest,
        "both": (lm_weight or 0.0) + (lm_weight_nbest or 0.0),
    }[fusion]
    return -hyp.model_score + weight * hyp.lm_cost


def table_problems(result, rows, alphabet, prons, eow: str, optional: bool) -> list[str]:
    """Model score, cost identity and lexicon spelling of every hypothesis of
    one table-scorer decode."""
    cfg = result.config
    eos = alphabet.id("<eos>")
    out = []
    for rank, hyp in enumerate(result.hypotheses):
        where = f"{result.uid} {cfg.fusion} #{rank}"
        want = table_model_score(rows, hyp.source_tokens, eos)
        if abs(hyp.model_score - want) > TOL:
            out.append(f"{where}: model_score {hyp.model_score!r}, row sum {want!r}")
        total = expected_total(hyp, cfg.fusion, cfg.lm_weight, cfg.lm_weight_nbest)
        if abs(hyp.total_cost - total) > TOL:
            out.append(f"{where}: total_cost {hyp.total_cost!r}, identity gives {total!r}")
        symbols = alphabet.decode(hyp.source_tokens)
        if not spells(hyp.words, symbols, prons, eow, optional):
            out.append(f"{where}: words {' '.join(hyp.words)} do not spell {' '.join(symbols)}")
    return out


def lm_cost_exact(result, lm, score_sequence) -> bool:
    """Whether every hypothesis's lattice cost equals the LM query rule."""
    return all(abs(h.lm_cost + score_sequence(lm, h.words)) <= TOL for h in result.hypotheses)


def dips(wers) -> bool:
    """The sweep's best point is below both of its endpoints."""
    return min(wers) < wers[0] and min(wers) < wers[-1]


def split_at_space(symbols, space: str = "<space>") -> tuple[str, ...]:
    words, piece = [], []
    for s in symbols:
        if s == space:
            if piece:
                words.append("".join(piece))
            piece = []
        else:
            piece.append(s)
    if piece:
        words.append("".join(piece))
    return tuple(words)


def las_rescore(model, features, tokens) -> float:
    """Log-probability of ``tokens`` then <eos>, stepping the model once
    from <sos> with no beam and no replay."""
    state = model.init_state(model.encode(features))
    y_prev, total = model.sos_id, 0.0
    for y in (*tokens, model.eos_id):
        dist, state = model.decode_step(state, y_prev)
        total += math.log(dist[y])
        y_prev = y
    return total


def las_problems(result, model, features, alphabet) -> list[str]:
    """Re-score and re-split the top hypothesis of one grapheme decode."""
    if not result.hypotheses:
        return [f"{result.uid}: no hypothesis"]
    top = result.hypotheses[0]
    out = []
    want = las_rescore(model, features, top.source_tokens)
    if abs(top.model_score - want) > TOL:
        out.append(f"{result.uid}: model_score {top.model_score!r}, re-score {want!r}")
    if abs(top.total_cost + top.model_score) > TOL:
        out.append(f"{result.uid}: total_cost {top.total_cost!r} is not -model_score")
    words = split_at_space(alphabet.decode(top.source_tokens))
    if words != tuple(top.words):
        out.append(f"{result.uid}: words {top.words} are not the tokens split at spaces {words}")
    return out
