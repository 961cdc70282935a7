"""Brute-force reference implementations the tests check the real code against.

Everything here trades efficiency for obviousness: plain enumeration, joins,
and textbook DP.  Nothing shares algorithmic code with the package beyond the
public data types.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fusedec.decoder import (
    DecodeConfig,
    DecodeError,
    FusionGraph,
    Hypothesis,
    NBestList,
    WordHypothesis,
)
from fusedec.fst import Arc, FstError, SymbolTable, WeightedFst
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
            lattice = min(reference_output_weights(graph, tokens).values(), default=None)
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


def log_rows(dists) -> list[list[float | None]]:
    """Probability rows as a scorer step returns them: ``math.log(p)`` per
    entry, None where ``p`` is 0."""
    return [[math.log(p) if p > 0.0 else None for p in row] for row in np.asarray(dists, dtype=np.float64).tolist()]


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


@dataclass(frozen=True)
class ReferenceStepState:
    """What :func:`reference_decode_step` carries between steps: the encoder
    output (T, enc_hidden), the recurrent vector (dec_hidden,), the
    attention mass each frame has accumulated, and the steps taken."""

    h_enc: np.ndarray
    s: np.ndarray
    cum_attention: np.ndarray
    steps: int = 0


def reference_state(model, h_enc):
    """The :class:`ReferenceStepState` before <sos>."""
    return ReferenceStepState(h_enc, np.zeros(model.dec_hidden), np.zeros(h_enc.shape[0]))


def _reference_cell(x, h_prev, Wz, Uz, bz, Wh, Uh, bh):
    z = 1.0 / (1.0 + np.exp(-(x @ Wz + h_prev @ Uz + bz)))
    g = np.tanh(x @ Wh + h_prev @ Uh + bh)
    h = (1.0 - z) * h_prev + z * g
    return h, (x, h_prev, z, g)


def _reference_masked_softmax(logits, mask):
    out = np.zeros_like(logits)
    live = logits[mask]
    live = np.exp(live - live.max())
    out[mask] = live / live.sum()
    return out


def head_weights(model, j):
    """Head ``j``'s (Wq, Wk, v) of a ``ToyLasModel``, as views: its columns
    of ``att_Wq`` and ``att_Wk`` and its row of ``att_v``."""
    cols = slice(j * model.att_dim, (j + 1) * model.att_dim)
    p = model.params
    return p["att_Wq"][:, cols], p["att_Wk"][:, cols], p["att_v"][j]


def reference_attend(model, h_enc, s_prev):
    """Additive attention of a ``ToyLasModel``, one head at a time, with
    every head's keys recomputed from ``h_enc``.

    Returns (contexts, weights, caches): contexts is (H, enc_hidden),
    weights is (H, T) with each row summing to 1, and caches holds each
    head's (u, alpha).
    """
    T = h_enc.shape[0]
    contexts = np.empty((model.n_heads, model.enc_hidden))
    weights = np.empty((model.n_heads, T))
    caches = []
    for j in range(model.n_heads):
        Wq, Wk, v = head_weights(model, j)
        u = np.tanh(s_prev @ Wq + h_enc @ Wk)
        e = u @ v
        e = np.exp(e - e.max())
        alpha = e / e.sum()
        contexts[j] = alpha @ h_enc
        weights[j] = alpha
        caches.append((u, alpha))
    return contexts, weights, caches


def reference_decode_step(model, state, y_prev):
    """One decode step of a ``ToyLasModel`` for one utterance, written apart
    from the package's batched forward pass: one head at a time, on vectors,
    with the keys recomputed every step.  Returns (distribution, next
    :class:`ReferenceStepState`, caches of the step)."""
    contexts, weights, att_caches = reference_attend(model, state.h_enc, state.s)
    x = np.concatenate([model.params["emb"][y_prev], contexts.ravel()])
    p = model.params
    s_new, cell_cache = _reference_cell(
        x, state.s, p["dec_Wz"], p["dec_Uz"], p["dec_bz"],
        p["dec_Wh"], p["dec_Uh"], p["dec_bh"],
    )
    logits = s_new @ p["out_W"] + p["out_b"]
    dist = _reference_masked_softmax(logits, model.emit_mask)
    new_state = ReferenceStepState(
        h_enc=state.h_enc,
        s=s_new,
        cum_attention=state.cum_attention + weights.mean(axis=0),
        steps=state.steps + 1,
    )
    return dist, new_state, (att_caches, cell_cache, dist, contexts, weights)


def reference_teacher_forced_accuracy(model, corpus):
    """Fraction of teacher-forced steps whose argmax equals the target,
    stepping each utterance alone, one ``decode_step`` per token."""
    hits = total = 0
    for utt in corpus:
        state = model.init_state(model.encode(utt.features))
        for y_in, y_out in zip((model.sos_id, *utt.reference[:-1]), utt.reference):
            dist, state = model.decode_step(state, y_in)
            hits += int(np.argmax(dist) == y_out)
            total += 1
    return hits / total


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
        lattice = min(reference_output_weights(graph, tokens).values(), default=None)
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

    A live entry is (hypothesis, state set, scorer state): a hypothesis
    leads with its cost and tokens, unique per entry, so entries sort
    natively; the scorer state is the parent's after the parent's step.
    Each live entry is stepped, and its coverage counted, alone: one scorer
    call at B = 1 per entry, where the decoder steps a whole depth at once.
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
    start_cost = start_state.best if graph is not None else 0.0
    live = [(Hypothesis(lam * start_cost, (), 0.0, start_cost, 0), start_state, scorer.start(utt))]
    finished: list[Hypothesis] = []
    for depth in range(steps + 1):
        extend = depth < steps
        candidates: list[tuple[Hypothesis, object, object]] = []
        for hyp, lm_state, state in live:
            logs, (state,) = step_distributions(scorer, [state], [hyp.tokens[-1] if hyp.tokens else None])
            cov = coverage_count(scorer, [state], config.coverage_threshold)[0] if eta > 0.0 else 0
            for tid, lp in enumerate(logs[0]):
                if lp is None:
                    continue
                score = hyp.model_score + lp
                if tid == eos:
                    if graph is not None:
                        stop = graph.final_best(lm_state)
                        if stop is None:
                            continue
                    else:
                        stop = 0.0
                    finished.append(Hypothesis(-score + lam * stop - eta * cov, hyp.tokens, score, stop, cov))
                elif extend:
                    if graph is not None:
                        nxt = graph.advance(lm_state, tid)
                        if nxt is None:
                            continue
                        ahead = nxt.best
                    else:
                        nxt, ahead = None, 0.0
                    child = Hypothesis(-score + lam * ahead - eta * cov, (*hyp.tokens, tid), score, ahead, cov)
                    candidates.append((child, nxt, state))
        if not extend or not candidates:
            break
        candidates.sort()
        live = candidates[: config.beam_width]
    finished.sort()
    if finished:
        return NBestList(tuple(finished[: config.nbest_size]), True)
    return NBestList(tuple(hyp for hyp, _, _ in live[: config.nbest_size]), False)


def reference_nbest_rescore(
    nbest: NBestList,
    graph: FusionGraph,
    lm_weight: float,
    *,
    nbest_size: int = 8,
    coverage_weight: float = 0.0,
) -> tuple[tuple[WordHypothesis, ...], int]:
    """``nbest_rescore`` as it was before it ranked plain tuples: a
    :class:`WordHypothesis` for every word string of every hypothesis, one
    stable sort of them all by ``(total_cost, words, source_tokens)``, and
    the first ``nbest_size`` kept; returns ``(hypotheses, unparsed)``."""
    pool: list[WordHypothesis] = []
    unparsed = 0
    for entry in nbest.entries:
        found = graph.words([entry.tokens])[0]
        if not found:
            unparsed += 1
        for lm_cost, _, words in found:
            total = -entry.model_score + lm_weight * lm_cost - coverage_weight * entry.coverage
            pool.append(
                WordHypothesis(
                    words=words,
                    total_cost=total,
                    model_score=entry.model_score,
                    lm_cost=lm_cost,
                    coverage=entry.coverage,
                    source_tokens=entry.tokens,
                )
            )
    pool.sort(key=lambda h: (h.total_cost, h.words, h.source_tokens))
    return tuple(pool[:nbest_size]), unparsed


def reference_closure(f: WeightedFst, seeds: dict[int, float]) -> tuple[tuple[int, float], ...]:
    """Dijkstra over input-epsilon arcs from weighted seed states, scanning
    every arc of a state; the sorted (state, cost) pairs."""
    dist = dict(seeds)
    heap = [(w, q) for q, w in seeds.items()]
    heapq.heapify(heap)
    while heap:
        w, q = heapq.heappop(heap)
        if w > dist.get(q, math.inf):
            continue
        for arc in f.arcs_from(q):
            if arc.ilabel != 0:
                continue
            cand = w + arc.weight
            if cand < dist.get(arc.dst, math.inf):
                dist[arc.dst] = cand
                heapq.heappush(heap, (cand, arc.dst))
    return tuple(sorted(dist.items()))


def reference_start(graph: FusionGraph) -> tuple[tuple[int, float], ...]:
    return reference_closure(graph.fst, {graph.fst.start: 0.0})


def reference_advance(
    graph: FusionGraph, states: tuple[tuple[int, float], ...], label: int
) -> tuple[tuple[int, float], ...] | None:
    """``FusionGraph.advance`` over plain (state, cost) tuples, computed
    afresh on every call: consume one token; None when no state survives."""
    seeds: dict[int, float] = {}
    for q, w in states:
        for arc in graph.fst.arcs_from(q):
            if arc.ilabel != label:
                continue
            cand = w + arc.weight
            if cand < seeds.get(arc.dst, math.inf):
                seeds[arc.dst] = cand
    if not seeds:
        return None
    return reference_closure(graph.fst, seeds)


def reference_ahead(graph: FusionGraph, states: tuple[tuple[int, float], ...]) -> dict[int, float]:
    """``FusionGraph.ahead`` as one scan of every arc of the set's states,
    computed afresh on every call: each non-epsilon label some state reads,
    mapped to its cheapest ``w + arc.weight``."""
    table: dict[int, float] = {}
    for q, w in states:
        for arc in graph.fst.arcs_from(q):
            label = arc.ilabel
            if label:
                cand = w + arc.weight
                if cand < table.get(label, math.inf):
                    table[label] = cand
    return table


def reference_best(states: tuple[tuple[int, float], ...]) -> float:
    return min(w for _, w in states)


def reference_final_best(graph: FusionGraph, states: tuple[tuple[int, float], ...]) -> float | None:
    """Best cost of stopping here, final weights included; None if the set
    contains no final state."""
    best = math.inf
    for q, w in states:
        best = min(best, w + graph.fst.final(q))
    return None if math.isinf(best) else best


def reference_output_weights(f: WeightedFst, ilabels) -> dict[tuple[int, ...], float]:
    """``output_weights`` as it was before it walked one label at a time:
    the cheapest weight of each distinct epsilon-free output string among
    the accepting paths whose epsilon-free input reads ``ilabels``.

    One Dijkstra over (labels read, state, output so far), each key settled
    once: exact weights when none is negative, all strings either way.  Only
    an input-epsilon cycle that writes output lets a path reading n labels
    write (n + 1) * num_states labels; that raises ``FstError``.
    """
    ids = f.isyms.encode(ilabels)
    cap = (len(ids) + 1) * f.num_states
    out: dict[tuple[int, ...], float] = {}
    done: set[tuple[int, int, tuple[int, ...]]] = set()
    heap = [(0.0, 0, f.start, ())]
    while heap:
        w, k, q, ols = heapq.heappop(heap)
        if (k, q, ols) in done:
            continue
        done.add((k, q, ols))
        if k == len(ids) and w + f.final(q) < out.get(ols, math.inf):
            out[ols] = w + f.final(q)
        arcs = f.arcs_with(q, 0)
        if k < len(ids) and ids[k]:
            arcs += f.arcs_with(q, ids[k])
        for arc in arcs:
            key = (k + 1 if arc.ilabel else k, arc.dst, ols + (arc.olabel,) if arc.olabel else ols)
            if len(key[2]) > cap:
                raise FstError("an input-epsilon cycle writes output, so the outputs are unbounded")
            if key not in done:
                heapq.heappush(heap, (w + arc.weight, *key))
    return out


# Composition filter states, as in ``fusedec.fst``: 0 = neutral, 1 = only
# the right machine may keep moving on epsilon, 2 = only the left may.
_FILTER_NEUTRAL, _FILTER_RIGHT, _FILTER_LEFT = 0, 1, 2


def reference_compose(a: WeightedFst, b: WeightedFst) -> WeightedFst:
    """Tropical composition with the standard 3-state epsilon filter, by
    asking the right machine about every arc of the left state: the
    composition :func:`fusedec.fst.compose` must equal arc for arc, with
    the same state numbering."""
    if a.osyms != b.isyms:
        raise FstError("compose: left output table and right input table differ")

    start_key = (a.start, b.start, _FILTER_NEUTRAL)
    ids: dict[tuple[int, int, int], int] = {start_key: 0}
    queue: deque[tuple[int, int, int]] = deque([start_key])
    arcs: list[Arc] = []
    finals: dict[int, float] = {}

    def state_id(key: tuple[int, int, int]) -> int:
        if key not in ids:
            ids[key] = len(ids)
            queue.append(key)
        return ids[key]

    while queue:
        key = queue.popleft()
        qa, qb, f = key
        src = ids[key]
        fa, fb = a.final(qa), b.final(qb)
        if fa < math.inf and fb < math.inf:
            finals[src] = fa + fb
        b_eps = b.arcs_with(qb, 0)
        for arc1 in a.arcs_from(qa):
            if arc1.olabel != 0:
                for arc2 in b.arcs_with(qb, arc1.olabel):
                    dst = state_id((arc1.dst, arc2.dst, _FILTER_NEUTRAL))
                    arcs.append(Arc(src, dst, arc1.ilabel, arc2.olabel, arc1.weight + arc2.weight))
            else:
                if f != _FILTER_RIGHT:
                    dst = state_id((arc1.dst, qb, _FILTER_LEFT))
                    arcs.append(Arc(src, dst, arc1.ilabel, 0, arc1.weight))
                if f == _FILTER_NEUTRAL:
                    for arc2 in b_eps:
                        dst = state_id((arc1.dst, arc2.dst, _FILTER_NEUTRAL))
                        arcs.append(Arc(src, dst, arc1.ilabel, arc2.olabel, arc1.weight + arc2.weight))
        if f != _FILTER_LEFT:
            for arc2 in b_eps:
                dst = state_id((qa, arc2.dst, _FILTER_RIGHT))
                arcs.append(Arc(src, dst, 0, arc2.olabel, arc2.weight))

    return _reference_trim(len(ids), 0, finals, arcs, a.isyms, b.osyms)


def _reference_coaccessible(arcs: list[Arc], finals: dict[int, float]) -> set[int]:
    """States from which some final state is reachable."""
    reverse: dict[int, list[int]] = {}
    for arc in arcs:
        reverse.setdefault(arc.dst, []).append(arc.src)
    alive = set(finals)
    stack = list(alive)
    while stack:
        q = stack.pop()
        for p in reverse.get(q, ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    return alive


def _reference_trim(
    num_states: int,
    start: int,
    finals: dict[int, float],
    arcs: list[Arc],
    isyms: SymbolTable,
    osyms: SymbolTable,
) -> WeightedFst:
    """Drop states that cannot reach a final state; renumber densely."""
    alive = _reference_coaccessible(arcs, finals)
    if start not in alive:
        return WeightedFst(1, 0, {}, [], isyms, osyms)
    renum = {old: new for new, old in enumerate(sorted(alive))}
    kept = [
        Arc(renum[a.src], renum[a.dst], a.ilabel, a.olabel, a.weight)
        for a in arcs
        if a.src in alive and a.dst in alive
    ]
    new_finals = {renum[q]: w for q, w in finals.items()}
    return WeightedFst(len(alive), renum[start], new_finals, kept, isyms, osyms)
