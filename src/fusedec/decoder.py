"""Beam decoding over scorer outputs, with optional word-lattice fusion.

A word-level language model can enter the search three ways: rescoring an
n-best list after a plain beam search, adding lattice prefix costs inside
the search, or both at once.  Lattice costs come from the composed
lexicon-grammar machine; the scorer supplies the per-step distributions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

# linear_fst and shortest_paths are unused here, but bench/tracing.py wraps them by name.
from .fst import (
    FstError,
    SymbolTable,
    WeightedFst,
    _eps_closure,
    compose,
    linear_fst,
    output_weights,
    relabel,
    shortest_paths,
)
from .scorer import EOS, Utterance, coverage_count, step_distributions

FUSION_MODES = ("none", "nbest", "beam", "both")
EOW_MODES = ("required", "optional")
SPACE = "<space>"


class DecodeError(ValueError):
    """Raised for an invalid decoding configuration or incompatible inputs."""


@dataclass(frozen=True)
class DecodeConfig:
    """Knobs for one decoding run.

    ``lm_weight`` scales lattice costs inside the search (fusion beam/both),
    ``lm_weight_nbest`` scales them during rescoring (fusion nbest/both) and
    must be set exactly for those strategies.  ``coverage_weight`` rewards
    attended encoder frames and only makes sense when the search itself is
    fused.  ``max_steps`` caps the token length of a hypothesis, the final
    <eos> not counted; it is a cap, not the usual search depth, since the
    beam stops as soon as no live hypothesis can still reach the n-best.
    """

    beam_width: int = 8
    max_steps: int = 64
    fusion: str = "none"
    lm_weight: float = 0.0
    lm_weight_nbest: float | None = None
    coverage_weight: float = 0.0
    coverage_threshold: float = 0.5
    eow_mode: str = "required"
    nbest_size: int = 8

    def __post_init__(self):
        if self.fusion not in FUSION_MODES:
            raise DecodeError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        if self.eow_mode not in EOW_MODES:
            raise DecodeError(f"eow_mode must be one of {EOW_MODES}, got {self.eow_mode!r}")
        for name in ("beam_width", "max_steps", "nbest_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise DecodeError(f"{name} must be a positive integer, got {v!r}")
        for name in ("lm_weight", "coverage_weight", "coverage_threshold"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DecodeError(f"{name} must be finite, got {v!r}")
        if self.lm_weight < 0 or self.coverage_weight < 0:
            raise DecodeError("weights must be non-negative")
        rescored = self.fusion in ("nbest", "both")
        if rescored:
            if self.lm_weight_nbest is None:
                raise DecodeError(f"fusion {self.fusion!r} requires lm_weight_nbest")
            if not math.isfinite(self.lm_weight_nbest) or self.lm_weight_nbest < 0:
                raise DecodeError(
                    f"lm_weight_nbest must be finite and non-negative, got {self.lm_weight_nbest!r}"
                )
        elif self.lm_weight_nbest is not None:
            raise DecodeError(f"lm_weight_nbest has no effect with fusion {self.fusion!r}")
        if self.fusion in ("none", "nbest") and self.lm_weight != 0.0:
            raise DecodeError(f"lm_weight has no effect with fusion {self.fusion!r}")
        if self.fusion in ("none", "nbest") and self.coverage_weight != 0.0:
            raise DecodeError("coverage_weight applies only when the search is fused")


@dataclass(frozen=True)
class Hypothesis:
    """One token-level hypothesis.

    ``tokens`` excludes the terminating <eos>, but ``model_score`` (sum of
    natural-log probabilities) includes the <eos> step once finished.
    ``lm_cost`` is the lattice cost: for a finished hypothesis the best
    accepting-path weight, for a live one the best prefix weight.
    """

    tokens: tuple[int, ...]
    model_score: float
    lm_cost: float
    coverage: int
    total_cost: float
    finished: bool
    lm_state: tuple[tuple[int, float], ...] | None = field(default=None, repr=False)


@dataclass(frozen=True)
class NBestList:
    """Ranked token hypotheses; ``complete`` is False when nothing finished
    and the entries are the best live prefixes instead."""

    entries: tuple[Hypothesis, ...]
    complete: bool


@dataclass(frozen=True)
class WordHypothesis:
    """A word sequence with the components of its combined cost."""

    words: tuple[str, ...]
    total_cost: float
    model_score: float
    lm_cost: float
    coverage: int
    source_tokens: tuple[int, ...]


@dataclass(frozen=True)
class RescoreResult:
    hypotheses: tuple[WordHypothesis, ...]
    unparsed: int


class FusionGraph:
    """The lexicon-grammar machine, relabeled to a scorer's token ids.

    Decoding tracks weighted state sets closed under input epsilons, so
    backoff and word-boundary arcs never block a token transition.
    """

    def __init__(self, lg: WeightedFst, alphabet: SymbolTable):
        emittable = {alphabet.sym(i) for i in range(1, len(alphabet))}
        used = {lg.isyms.sym(a.ilabel) for a in lg.arcs if a.ilabel != 0}
        if not used & emittable:
            raise DecodeError("the fusion graph consumes no symbol the scorer can emit")
        try:
            self.fst = relabel(lg, isyms=alphabet)
        except FstError as e:
            raise DecodeError(f"fusion graph incompatible with the scorer alphabet: {e}") from e
        self.alphabet = alphabet
        self.start = _freeze(_eps_closure(self.fst, {self.fst.start: 0.0}))
        # Prefix costs never fall when no weight is negative; the beam's
        # threshold pruning is exact only then.
        self.nonnegative = all(a.weight >= 0.0 for a in self.fst.arcs) and all(
            w >= 0.0 for w in self.fst.finals.values()
        )

    def advance(
        self, states: tuple[tuple[int, float], ...], label: int
    ) -> tuple[tuple[int, float], ...] | None:
        """Consume one token; None when no state survives."""
        seeds: dict[int, float] = {}
        for q, w in states:
            for arc in self.fst.arcs_from(q):
                if arc.ilabel != label:
                    continue
                cand = w + arc.weight
                if cand < seeds.get(arc.dst, math.inf):
                    seeds[arc.dst] = cand
        if not seeds:
            return None
        return _freeze(_eps_closure(self.fst, seeds))

    def best(self, states: tuple[tuple[int, float], ...]) -> float:
        return min(w for _, w in states)

    def final_best(self, states: tuple[tuple[int, float], ...]) -> float | None:
        """Best cost of stopping here, final weights included; None if the
        set contains no final state."""
        best = math.inf
        for q, w in states:
            best = min(best, w + self.fst.final(q))
        return None if math.isinf(best) else best


def _freeze(dist: dict[int, float]) -> tuple[tuple[int, float], ...]:
    return tuple(sorted(dist.items()))


class DecodeResources:
    """Lexicon and grammar prepared for decoding.

    Composes L with G once up front (words relabeled into the grammar's
    vocabulary) and caches one relabeled graph per scorer alphabet.
    """

    def __init__(
        self,
        lexicon_fst: WeightedFst | None = None,
        lm_fst: WeightedFst | None = None,
    ):
        if (lexicon_fst is None) != (lm_fst is None):
            raise DecodeError("lexicon and language model must be provided together")
        self.lexicon_fst = lexicon_fst
        self.lm_fst = lm_fst
        self.lg: WeightedFst | None = None
        if lexicon_fst is not None and lm_fst is not None:
            try:
                self.lg = compose(relabel(lexicon_fst, osyms=lm_fst.isyms), lm_fst)
            except FstError as e:
                raise DecodeError(
                    f"lexicon does not match the language model vocabulary: {e}"
                ) from e
        self._graphs: dict[SymbolTable, FusionGraph] = {}

    def graph_for(self, alphabet: SymbolTable) -> FusionGraph:
        if self.lg is None:
            raise DecodeError("fusion requires both a lexicon and a language model")
        graph = self._graphs.get(alphabet)
        if graph is None:
            graph = FusionGraph(self.lg, alphabet)
            self._graphs[alphabet] = graph
        return graph


def _hyp_key(h: Hypothesis) -> tuple[float, tuple[int, ...]]:
    return (h.total_cost, h.tokens)


def _expand(scorer, utt: Utterance, config: DecodeConfig, graph: FusionGraph | None) -> NBestList:
    """Shared beam core; ``graph`` None gives the plain model-score search.

    A live entry is (total_cost, tokens, hypothesis, scorer state): the
    leading pair is ``_hyp_key``, unique per entry, so entries sort natively;
    the state is the parent's after the parent's step, so every expansion is
    one scorer step.

    Threshold pruning keeps the returned list exactly the unpruned beam's.
    Once ``nbest_size`` hypotheses have finished, the bar is the cost of the
    ``nbest_size``-th of them.  Along any path ``-score + lm_weight *
    lm_cost`` never falls: each step adds ``-log p >= 0``, and ``graph.best``
    and ``graph.final_best`` cannot fall while every arc and final weight is
    non-negative (a graph with a negative weight turns pruning off).  The
    coverage reward takes at most ``coverage_weight * cap`` off a cost,
    where ``cap = max(steps + 1, frames)`` bounds what ``covered()`` can
    reach.  So a live entry whose ``-score + lm_weight * lm_cost -
    coverage_weight * cap`` is strictly above the bar can only finish behind
    the n-best.  Without a coverage reward that bound is the entry's own
    cost: the beam drops its entries above the bar, and those it keeps are
    the ones the unpruned beam keeps at or under it.  With a coverage reward
    a cost can fall along a path, so a dropped entry's children might have
    pushed kept ones out of the beam; the search then only stops once every
    live entry is above the bar.
    """
    alphabet = scorer.alphabet
    try:
        eos = alphabet.id(EOS)
    except FstError as e:
        raise DecodeError(f"scorer alphabet lacks {EOS}: {e}") from e
    lam = config.lm_weight if graph is not None else 0.0
    eta = config.coverage_weight
    steps = min(config.max_steps, scorer.token_limit(utt))
    prune = graph is None or graph.nonnegative
    slack = eta * max(steps + 1, utt.features.shape[0])
    nbest = config.nbest_size
    start_state = graph.start if graph is not None else None
    start_cost = graph.best(start_state) if graph is not None else 0.0
    root = Hypothesis((), 0.0, start_cost, 0, lam * start_cost, False, start_state)
    live = [(root.total_cost, (), root, scorer.start(utt))]
    finished: list[Hypothesis] = []
    cheapest: list[float] = []  # the nbest cheapest finished costs, negated (a max-heap)
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
                    if len(cheapest) < nbest:
                        heapq.heappush(cheapest, -total)
                    elif total < -cheapest[0]:
                        heapq.heapreplace(cheapest, -total)
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
        if prune and len(cheapest) == nbest:
            bar = -cheapest[0]
            if eta == 0.0:
                while live and live[-1][0] > bar:
                    live.pop()
            elif all(-h.model_score + lam * h.lm_cost - slack > bar for _, _, h, _ in live):
                live = []
            if not live:
                break
    finished.sort(key=_hyp_key)
    if finished:
        return NBestList(tuple(finished[: config.nbest_size]), True)
    return NBestList(tuple(hyp for _, _, hyp, _ in live[: config.nbest_size]), False)


def beam_search(scorer, utt: Utterance, config: DecodeConfig) -> NBestList:
    """Plain beam search over scorer distributions, no lattice involved."""
    if config.fusion in ("beam", "both"):
        raise DecodeError(f"beam_search does not fuse; got fusion {config.fusion!r}")
    return _expand(scorer, utt, config, None)


def fused_beam_search(
    scorer, lg: WeightedFst | FusionGraph, utt: Utterance, config: DecodeConfig
) -> NBestList:
    """Beam search with lattice prefix costs folded into the ranking.

    Hypotheses whose token prefix leaves the lattice are pruned, and <eos>
    is only allowed where the state set can stop.
    """
    if config.fusion not in ("beam", "both"):
        raise DecodeError(f"fused_beam_search requires fusion beam or both, got {config.fusion!r}")
    graph = lg if isinstance(lg, FusionGraph) else FusionGraph(lg, scorer.alphabet)
    return _expand(scorer, utt, config, graph)


def nbest_rescore(
    nbest: NBestList,
    graph: FusionGraph,
    lm_weight: float,
    *,
    nbest_size: int = 8,
    coverage_weight: float = 0.0,
) -> RescoreResult:
    """Turn token hypotheses into ranked word hypotheses.

    Every distinct word string a hypothesis spells competes separately, at
    its cheapest lattice cost, so homophones are resolved by the combined
    cost rather than collapsed before ranking.  Hypotheses with no accepting
    path are dropped and counted.  The graph must have no negative weight.
    """
    if not graph.nonnegative:
        raise DecodeError("word recovery requires a fusion graph with no negative weight")
    pool: list[WordHypothesis] = []
    unparsed = 0
    for entry in nbest.entries:
        weights = output_weights(graph.fst, entry.tokens)
        if not weights:
            unparsed += 1
        for olabels, lm_cost in weights.items():
            total = -entry.model_score + lm_weight * lm_cost - coverage_weight * entry.coverage
            pool.append(
                WordHypothesis(
                    words=graph.fst.osyms.decode(olabels),
                    total_cost=total,
                    model_score=entry.model_score,
                    lm_cost=lm_cost,
                    coverage=entry.coverage,
                    source_tokens=entry.tokens,
                )
            )
    pool.sort(key=lambda h: (h.total_cost, h.words, h.source_tokens))
    return RescoreResult(tuple(pool[:nbest_size]), unparsed)


def _split_graphemes(entry: Hypothesis, alphabet: SymbolTable) -> WordHypothesis:
    """Words from a grapheme token string, split at <space>."""
    space = alphabet.id(SPACE)
    words: list[str] = []
    piece: list[str] = []
    for tid in entry.tokens:
        if tid == space:
            if piece:
                words.append("".join(piece))
            piece = []
        else:
            piece.append(alphabet.sym(tid))
    if piece:
        words.append("".join(piece))
    return WordHypothesis(
        words=tuple(words),
        total_cost=entry.total_cost,
        model_score=entry.model_score,
        lm_cost=0.0,
        coverage=entry.coverage,
        source_tokens=entry.tokens,
    )


def _best_words(entry: Hypothesis, graph: FusionGraph) -> WordHypothesis | None:
    """The cheapest word string for one fused hypothesis; None if none accepts."""
    weights = output_weights(graph.fst, entry.tokens)
    if not weights:
        return None
    _, olabels = min((w, olabels) for olabels, w in weights.items())
    return WordHypothesis(
        words=graph.fst.osyms.decode(olabels),
        total_cost=entry.total_cost,
        model_score=entry.model_score,
        lm_cost=entry.lm_cost,
        coverage=entry.coverage,
        source_tokens=entry.tokens,
    )


@dataclass(frozen=True)
class DecodeResult:
    """Decoded words for one utterance plus the ranked alternatives."""

    uid: str
    strategy: str
    config: DecodeConfig
    hypotheses: tuple[WordHypothesis, ...]
    complete: bool
    unparsed: int

    @property
    def words(self) -> tuple[str, ...]:
        return self.hypotheses[0].words if self.hypotheses else ()

    def to_dict(self) -> dict:
        return {
            "uid": self.uid,
            "strategy": self.strategy,
            "config": {
                "lm_weight": self.config.lm_weight,
                "lm_weight_nbest": self.config.lm_weight_nbest,
                "coverage_weight": self.config.coverage_weight,
                "beam_width": self.config.beam_width,
                "eow_mode": self.config.eow_mode,
            },
            "nbest": [
                {
                    "words": list(h.words),
                    "total_cost": h.total_cost,
                    "model_score": h.model_score,
                    "lm_cost": h.lm_cost,
                    "coverage": h.coverage,
                }
                for h in self.hypotheses
            ],
            "words": list(self.words),
            "complete": self.complete,
            "unparsed": self.unparsed,
        }


def decode(
    scorer,
    resources: DecodeResources | None,
    utt: Utterance,
    config: DecodeConfig,
) -> DecodeResult:
    """Run one utterance through the configured strategy."""
    if config.fusion == "none":
        if SPACE not in scorer.alphabet:
            raise DecodeError(f"fusion 'none' splits words at {SPACE}, absent from the alphabet")
        nb = _expand(scorer, utt, config, None)
        hyps = tuple(_split_graphemes(e, scorer.alphabet) for e in nb.entries)
        return DecodeResult(utt.uid, config.fusion, config, hyps, nb.complete, 0)
    if resources is None:
        raise DecodeError(f"fusion {config.fusion!r} requires decode resources")
    graph = resources.graph_for(scorer.alphabet)
    if not graph.nonnegative:
        raise DecodeError("word recovery requires a fusion graph with no negative weight")
    nb = _expand(scorer, utt, config, None if config.fusion == "nbest" else graph)
    if config.fusion == "beam":
        found = [_best_words(entry, graph) for entry in nb.entries]
        kept = tuple(wh for wh in found if wh is not None)
        res = RescoreResult(kept, len(found) - len(kept))
    else:  # nbest, where lm_weight and coverage_weight are 0, or both
        res = nbest_rescore(
            nb,
            graph,
            config.lm_weight + config.lm_weight_nbest,
            nbest_size=config.nbest_size,
            coverage_weight=config.coverage_weight,
        )
    return DecodeResult(utt.uid, config.fusion, config, res.hypotheses, nb.complete, res.unparsed)


def decode_batch(
    scorer, resources: DecodeResources | None, utts: list[Utterance], config: DecodeConfig
) -> list[DecodeResult]:
    """Decode many utterances, one :func:`decode` each, in input order; a
    scorer the fusion graph does not fit fails before the first decode."""
    if config.fusion != "none" and resources is not None:
        resources.graph_for(scorer.alphabet)
    return [decode(scorer, resources, u, config) for u in utts]
