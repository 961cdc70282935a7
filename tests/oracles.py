"""Brute-force reference implementations the tests check the real code against.

Everything here trades efficiency for obviousness: plain enumeration, joins,
and textbook DP.  Nothing shares algorithmic code with the package beyond the
public data types.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from fusedec.decoder import DecodeConfig, DecodeError, FusionGraph, Hypothesis, NBestList, _hyp_key
from fusedec.fst import FstError, WeightedFst, string_weight
from fusedec.scorer import EOS, TableScorer, Utterance, coverage_count, step_distributions


def enumerate_paths(
    f: WeightedFst, max_arcs: int, max_labels: int | None = None
) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
    """All accepting paths using at most ``max_arcs`` arcs.

    Returns (epsilon-free ilabels, epsilon-free olabels, weight) per path,
    one entry per distinct path through the graph.
    """
    out: list[tuple[tuple[int, ...], tuple[int, ...], float]] = []

    def walk(state: int, ils: tuple[int, ...], ols: tuple[int, ...], w: float, arcs_used: int):
        fw = f.final(state)
        if fw < math.inf:
            out.append((ils, ols, w + fw))
        if arcs_used == max_arcs:
            return
        for arc in f.arcs_from(state):
            nils = ils + (arc.ilabel,) if arc.ilabel else ils
            nols = ols + (arc.olabel,) if arc.olabel else ols
            if max_labels is not None and (len(nils) > max_labels or len(nols) > max_labels):
                continue
            walk(arc.dst, nils, nols, w + arc.weight, arcs_used + 1)

    walk(f.start, (), (), 0.0, 0)
    return out


def relation_table(
    f: WeightedFst, max_arcs: int, max_labels: int | None = None
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
    """Map (input string, output string) -> minimum accepting weight."""
    rel: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    for ils, ols, w in enumerate_paths(f, max_arcs, max_labels):
        key = (ils, ols)
        if w < rel.get(key, math.inf):
            rel[key] = w
    return rel


def compose_relation_bruteforce(
    a: WeightedFst, b: WeightedFst, max_arcs: int, max_labels: int
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
    """Join the two relations on the middle string, taking min over factorizations."""
    rel_a = relation_table(a, max_arcs, max_labels)
    rel_b = relation_table(b, max_arcs, max_labels)
    by_mid: dict[tuple[int, ...], list[tuple[tuple[int, ...], float]]] = {}
    for (s, u), w in rel_a.items():
        by_mid.setdefault(u, []).append((s, w))
    joined: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    for (mid, t), wb in rel_b.items():
        for s, wa in by_mid.get(mid, ()):
            key = (s, t)
            if wa + wb < joined.get(key, math.inf):
                joined[key] = wa + wb
    return joined


def best_string_weight_bruteforce(
    f: WeightedFst, ilabels: tuple[int, ...], max_arcs: int
) -> float | None:
    best = math.inf
    for ils, _, w in enumerate_paths(f, max_arcs):
        if ils == ilabels:
            best = min(best, w)
    return best if best < math.inf else None


def align_counts_bruteforce(ref: list[str], hyp: list[str]) -> tuple[int, int, int]:
    """(deletions, insertions, substitutions) of the canonical best alignment.

    Enumerates every alignment recursively and picks the minimum by
    (total edits, insertions + deletions); that pair determines the triple
    uniquely because del - ins is fixed by the length difference.
    """
    best: list[tuple[int, int, int, int, int]] = []

    def walk(i: int, j: int, d: int, ins: int, s: int):
        if i == len(ref) and j == len(hyp):
            cost = d + ins + s
            best.append((cost, d + ins, d, ins, s))
            return
        if i < len(ref) and j < len(hyp):
            walk(i + 1, j + 1, d, ins, s + (ref[i] != hyp[j]))
        if i < len(ref):
            walk(i + 1, j, d + 1, ins, s)
        if j < len(hyp):
            walk(i, j + 1, d, ins + 1, s)

    walk(0, 0, 0, 0, 0)
    cost, insdel, d, ins, s = min(best)
    return d, ins, s


def mle_conditional(counts: dict[tuple[str, ...], int], gram: tuple[str, ...]) -> Fraction:
    """Exact-fraction MLE conditional for a counted gram."""
    ctx = gram[:-1]
    denom = sum(c for g, c in counts.items() if len(g) == len(gram) and g[:-1] == ctx)
    if denom == 0 or gram not in counts:
        return Fraction(0)
    return Fraction(counts[gram], denom)


def segmentations_bruteforce(
    phones: tuple[str, ...],
    entries: dict[str, tuple[tuple[str, ...], ...]],
    eow_mode: str,
) -> set[tuple[str, ...]]:
    """All word sequences a lexicon assigns to a phone string, by recursive
    prefix matching (no FST machinery involved)."""
    out: set[tuple[str, ...]] = set()

    def walk(rest: tuple[str, ...], words: tuple[str, ...]):
        if not rest:
            out.add(words)
            return
        for word, prons in entries.items():
            for pron in prons:
                n = len(pron)
                if rest[:n] != pron:
                    continue
                tail = rest[n:]
                if tail[:1] == ("<eow>",):
                    walk(tail[1:], words + (word,))
                if eow_mode == "optional":
                    walk(tail, words + (word,))

    walk(phones, ())
    return out


def ngram_counts_bruteforce(sentences: list[list[str]], order: int) -> dict[tuple[str, ...], int]:
    """Window counts over padded sentences, keeping only grams a model
    conditions on (nothing ends in the start pad)."""
    counts: dict[tuple[str, ...], int] = {}
    for sent in sentences:
        padded = ["<s>", *sent, "</s>"]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i : i + k])
                if gram[-1] == "<s>":
                    continue
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def absdisc_conditional(
    counts: dict[tuple[str, ...], int],
    discount: Fraction,
    n_events: int,
    gram: tuple[str, ...],
) -> Fraction:
    """Interpolated absolute discounting evaluated straight from its
    definition, recursively, in exact fractions."""
    if len(gram) == 1:
        uni = {g: c for g, c in counts.items() if len(g) == 1}
        total = sum(uni.values())
        gamma = discount * len(uni) / total
        c = uni.get(gram, 0)
        seen = (Fraction(c) - discount) / total if c > 0 else Fraction(0)
        return seen + gamma * Fraction(1, n_events)
    ctx = gram[:-1]
    conts = {g: c for g, c in counts.items() if len(g) == len(gram) and g[:-1] == ctx}
    lower = absdisc_conditional(counts, discount, n_events, gram[1:])
    if not conts:
        return lower
    tot = sum(conts.values())
    gamma = discount * Fraction(len(conts)) / tot
    c = conts.get(gram, 0)
    seen = (Fraction(c) - discount) / tot if c > 0 else Fraction(0)
    return seen + gamma * lower


def fused_argmin_bruteforce(rows, eos_id, max_len, lam=0.0, eta=0.0, graph=None):
    """Definitional argmin over every token string of length <= max_len.

    A string is eligible when each of its steps, the closing eos included,
    has positive probability in the row table, and (if a graph is given)
    when the graph accepts it.  Returns (total_cost, tokens) with ties going
    to the lexicographically smaller token tuple.
    """
    n_rows = len(rows)
    best = None

    def consider(tokens, score):
        nonlocal best
        p_eos = rows[len(tokens)][eos_id]
        if p_eos <= 0.0:
            return
        lattice = 0.0
        if graph is not None:
            lattice = string_weight(graph, tokens)
            if lattice is None:
                return
        cov = len(tokens) + 1 if eta else 0
        total = -(score + math.log(p_eos)) + lam * lattice - eta * cov
        key = (total, tokens)
        if best is None or key < best:
            best = key

    def grow(tokens, score):
        consider(tokens, score)
        if len(tokens) >= min(max_len, n_rows - 1):
            return
        row = rows[len(tokens)]
        for t in range(len(row)):
            if t != eos_id and row[t] > 0.0:
                grow(tokens + (t,), score + math.log(row[t]))

    grow((), 0.0)
    return best


def replay_distribution(scorer, utt, prefix):
    """Next-symbol distribution after ``prefix`` (ids, no <sos>), rebuilt
    from scratch: a table scorer reads row ``len(prefix)``, an attention
    model re-encodes the utterance and steps from <sos> through the prefix."""
    prefix = tuple(int(y) for y in prefix)
    if isinstance(scorer, TableScorer):
        return scorer.rows[utt.uid][len(prefix)]
    state = scorer.init_state(scorer.encode(utt.features))
    dist, state = scorer.decode_step(state, scorer.sos_id)
    for y in prefix:
        dist, state = scorer.decode_step(state, y)
    return dist


def replay_coverage(scorer, utt, prefix, threshold):
    """Encoder frames whose accumulated attention exceeds ``threshold`` after
    the steps that consume <sos> and ``prefix``; a table scorer counts one
    frame per prefix symbol."""
    prefix = tuple(int(y) for y in prefix)
    if isinstance(scorer, TableScorer):
        return len(prefix)
    state = scorer.init_state(scorer.encode(utt.features))
    _, state = scorer.decode_step(state, scorer.sos_id)
    for y in prefix:
        _, state = scorer.decode_step(state, y)
    return int(sum(1 for a in state.cum_attention if a > threshold))


def scorer_argmin_bruteforce(scorer, utt, max_len, lam, eta, threshold, graph):
    """Definitional fused argmin for any scorer: every token string of length
    <= max_len that ``graph`` accepts, its model score summed from replayed
    distributions, its coverage replayed over the string plus <eos>.

    Returns (total_cost, tokens), ties going to the smaller token tuple.
    """
    alphabet = scorer.alphabet
    eos = alphabet.id("<eos>")
    symbols = [t for t in range(1, len(alphabet)) if alphabet.sym(t) not in ("<sos>", "<eos>")]
    best = None

    def walk(tokens):
        nonlocal best
        lattice = string_weight(graph, tokens)
        if lattice is not None:
            score = 0.0
            for i, y in enumerate((*tokens, eos)):
                p = replay_distribution(scorer, utt, tokens[:i])[y]
                score = score + math.log(p) if p > 0.0 else -math.inf
            if score > -math.inf:
                cov = replay_coverage(scorer, utt, (*tokens, eos), threshold)
                key = (-score + lam * lattice - eta * cov, tokens)
                if best is None or key < best:
                    best = key
        if len(tokens) < max_len:
            for t in symbols:
                walk((*tokens, t))

    walk(())
    return best


def reference_expand(scorer, utt: Utterance, config: DecodeConfig, graph: FusionGraph | None) -> NBestList:
    """The decoder's beam core as it was before threshold pruning: every
    depth up to ``min(max_steps, token_limit)`` is searched, whatever the
    finished hypotheses already cost.  ``graph`` None gives the plain
    model-score search.

    A live entry is (total_cost, tokens, hypothesis, scorer state): the
    leading pair is ``_hyp_key``, unique per entry, so entries sort natively;
    the state is the parent's after the parent's step, so every expansion is
    one scorer step.
    """
    alphabet = scorer.alphabet
    try:
        eos = alphabet.id(EOS)
    except FstError as e:
        raise DecodeError(f"scorer alphabet lacks {EOS}: {e}") from e
    lam = config.lm_weight if graph is not None else 0.0
    eta = config.coverage_weight
    steps = min(config.max_steps, scorer.token_limit(utt))
    start_state = graph.start if graph is not None else None
    start_cost = graph.best(start_state) if graph is not None else 0.0
    root = Hypothesis((), 0.0, start_cost, 0, lam * start_cost, False, start_state)
    live = [(root.total_cost, (), root, scorer.start(utt))]
    finished: list[Hypothesis] = []
    for depth in range(steps + 1):
        extend = depth < steps
        candidates: list[tuple[float, tuple[int, ...], Hypothesis, object]] = []
        for _, _, hyp, state in live:
            dist, state = step_distributions(scorer, state, hyp.tokens[-1] if hyp.tokens else None)
            cov = coverage_count(scorer, state, config.coverage_threshold) if eta > 0.0 else 0
            for tid in np.flatnonzero(dist > 0.0):
                tid = int(tid)
                score = hyp.model_score + math.log(dist[tid])
                if tid == eos:
                    if graph is not None:
                        stop = graph.final_best(hyp.lm_state)
                        if stop is None:
                            continue
                    else:
                        stop = 0.0
                    total = -score + lam * stop - eta * cov
                    finished.append(Hypothesis(hyp.tokens, score, stop, cov, total, True))
                elif extend:
                    if graph is not None:
                        nxt = graph.advance(hyp.lm_state, tid)
                        if nxt is None:
                            continue
                        ahead = graph.best(nxt)
                    else:
                        nxt, ahead = None, 0.0
                    total = -score + lam * ahead - eta * cov
                    tokens = (*hyp.tokens, tid)
                    child = Hypothesis(tokens, score, ahead, cov, total, False, nxt)
                    candidates.append((total, tokens, child, state))
        if not extend or not candidates:
            break
        candidates.sort()
        live = candidates[: config.beam_width]
    finished.sort(key=_hyp_key)
    if finished:
        return NBestList(tuple(finished[: config.nbest_size]), True)
    return NBestList(tuple(hyp for _, _, hyp, _ in live[: config.nbest_size]), False)
