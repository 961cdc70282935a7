"""Beam decoding over scorer outputs, with optional word-lattice fusion.

A word-level language model can enter the search three ways: rescoring an
n-best list after a plain beam search, adding lattice prefix costs inside
the search, or both at once.  Lattice costs come from the composed
lexicon-grammar machine; the scorer supplies the per-step log-probabilities.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

# linear_fst and shortest_paths are unused here, but bench/tracing.py wraps them by name.
from .fst import (
    FstError,
    SymbolTable,
    WeightedFst,
    _eps_closure,
    compose,
    linear_fst,
    output_weights_batch,
    relabel,
    shortest_paths,
)
from .lexicon import EOW_MODES
from .scorer import EOS, Utterance, coverage_count, step_distributions

FUSION_MODES = ("none", "nbest", "beam", "both")
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
    ``eow_mode`` only labels the results: the search never reads it, since
    boundary handling is fixed when ``compile_lexicon`` builds the lexicon.
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


class Hypothesis(NamedTuple):
    """One token-level hypothesis: an entry :func:`_expand` returns, with
    names, so hypotheses sort the way the beam ranks them.

    ``tokens`` excludes the terminating <eos>, but ``model_score`` (sum of
    natural-log probabilities) includes the <eos> step once finished.
    ``lm_cost`` is the lattice cost: for a finished hypothesis the best
    accepting-path weight, for a live one the best prefix weight.
    """

    total_cost: float
    tokens: tuple[int, ...]
    model_score: float
    lm_cost: float
    coverage: int


class NBestList(NamedTuple):
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


_MAX_STORED = 4096
_UNKNOWN = object()
# (lm_cost, output labels, words): one word string a token string spells
WordParse = tuple[float, tuple[int, ...], tuple[str, ...]]


class StateSet:
    """A weighted state set closed under input epsilons, reached by one
    token prefix.

    ``pairs`` are the sorted ``(state, cost)`` pairs of the closure it is
    built from, and ``best`` is their least cost.  A set is closed when it
    is built: only the beam's survivors are built, and the beam reads the
    pairs of nearly every survivor, to expand it or to ask its stopping
    cost.

    ``final_best`` is filled in by :meth:`FusionGraph.final_best` the first
    time it is asked for, ``ahead`` by :meth:`FusionGraph.ahead`, and
    ``next`` maps each label advanced so far to the set it leads to (None
    when no state survives).  Two sets are equal when their pairs are,
    whatever prefixes reached them.
    """

    __slots__ = ("pairs", "best", "final_best", "ahead", "next")

    def __init__(self, closed: dict[int, float]):
        self.pairs = tuple(sorted(closed.items()))
        self.best = min(closed.values())
        self.final_best = _UNKNOWN
        self.ahead: dict[int, float] | None = None
        self.next: dict[int, StateSet | None] = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSet):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)


class FusionGraph:
    """The lexicon-grammar machine, relabeled to a scorer's token ids.

    Decoding tracks weighted state sets closed under input epsilons, so
    backoff and word-boundary arcs never block a token transition.  Every
    arc and final weight must be non-negative, so that prefix costs never
    fall: the epsilon closure, the beam's threshold pruning, the label
    tables and word recovery all rely on it, and a negative epsilon cycle
    would never close.

    The beam ranks a set's children before building any of them:
    :meth:`ahead` gives the cost each label leads to, and only the children
    that survive the beam are built with :meth:`advance`, each closed as it
    is built.  ``ahead`` reads no arc:
    each L∘G state's cheapest arc weight per label is worked out the first
    time a set holding that state is ranked, and kept for the graph's
    lifetime.  Those per-state tables are facts of the graph, at most one
    per state, so they are not counted against the bound below and a
    rebuild keeps them; they speed up a first decode as much as a repeated
    one.

    Each :class:`StateSet` remembers its label table and where it leads, so
    the sets form a trie of the token prefixes decoded so far.  :meth:`words`
    recovers the word strings of all of one decode's finished token strings
    in one label-synchronous walk that shares their common prefixes, and
    remembers each string's result: a sweep that decodes the same
    utterances at many weights computes each closure and set table, and
    recovers each token string's words, once.
    At most ``_MAX_STORED`` (4,096) of these per-prefix results,
    transitions, set tables and word maps together, are stored per graph.
    When the bound is reached, ``start`` is rebuilt from the same pairs, the
    word maps are dropped and the count starts again; the old trie is freed
    once no live hypothesis holds a set of it.  A stored result is the very
    one a fresh computation gives.
    """

    def __init__(self, lg: WeightedFst, alphabet: SymbolTable):
        if any(a.weight < 0.0 for a in lg.arcs) or any(w < 0.0 for w in lg.finals.values()):
            raise DecodeError("the fusion graph has a negative weight; its costs must never fall")
        emittable = {alphabet.sym(i) for i in range(1, len(alphabet))}
        used = {lg.isyms.sym(a.ilabel) for a in lg.arcs if a.ilabel != 0}
        if not used & emittable:
            raise DecodeError("the fusion graph consumes no symbol the scorer can emit")
        try:
            self.fst = relabel(lg, isyms=alphabet)
        except FstError as e:
            raise DecodeError(f"fusion graph incompatible with the scorer alphabet: {e}") from e
        self._cheapest: list[dict[int, float] | None] = [None] * self.fst.num_states
        self.start = StateSet(_eps_closure(self.fst, {self.fst.start: 0.0}))
        self._rebuild()

    def _rebuild(self) -> None:
        """Forget every per-prefix result: a fresh ``start`` and no word
        maps.  The per-state label costs stay."""
        self.start = StateSet(dict(self.start.pairs))
        self._words: dict[tuple[int, ...], tuple[WordParse, ...]] = {}
        self._stored = 0

    def _store(self) -> None:
        """Count one more stored result, forgetting them all at the bound."""
        if self._stored == _MAX_STORED:
            self._rebuild()
        self._stored += 1

    def ahead(self, states: StateSet) -> dict[int, float]:
        """Each non-epsilon label some state of the set reads, mapped to
        ``advance(states, label).best``, the first time it is asked for: a
        min-merge of ``w + cheapest[q][label]`` over the set's ``(q, w)``
        pairs, where ``cheapest[q]`` is :meth:`_label_costs`.  Rounding
        ``w + c`` is monotone in ``c``, so that equals the cheapest ``w +
        arc.weight`` over the set's arcs bit for bit.  A label is absent
        exactly when ``advance`` would return None."""
        table = states.ahead
        if table is None:
            table = {}
            cheapest = self._cheapest
            for q, w in states.pairs:
                costs = cheapest[q]
                if costs is None:
                    costs = cheapest[q] = self._label_costs(q)
                for label, c in costs.items():
                    cand = w + c
                    if cand < table.get(label, math.inf):
                        table[label] = cand
            self._store()
            states.ahead = table
        return table

    def _label_costs(self, q: int) -> dict[int, float]:
        """Each non-epsilon label state ``q`` reads, mapped to its cheapest
        arc weight, read from the graph's label index; a label whose arcs
        all weigh +inf is absent."""
        return {
            label: cost
            for label, arcs in self.fst._labels(q).items()
            if label and (cost := min(arc.weight for arc in arcs)) < math.inf
        }

    def advance(self, states: StateSet, label: int) -> StateSet | None:
        """Consume one token and close the states its arcs reach; None when
        no state survives.  The closure never lowers the cheapest of those
        states, as no weight is negative, so ``best`` is the one
        :meth:`ahead` gave for the label."""
        nxt = states.next.get(label, _UNKNOWN)
        if nxt is not _UNKNOWN:
            return nxt
        seeds: dict[int, float] = {}
        for q, w in states.pairs:
            for arc in self.fst.arcs_with(q, label):
                cand = w + arc.weight
                if cand < seeds.get(arc.dst, math.inf):
                    seeds[arc.dst] = cand
        nxt = StateSet(_eps_closure(self.fst, seeds)) if seeds else None
        self._store()
        states.next[label] = nxt
        return nxt

    def final_best(self, states: StateSet) -> float | None:
        """Best cost of stopping here, final weights included; None if the
        set contains no final state."""
        stop = states.final_best
        if stop is _UNKNOWN:
            best = math.inf
            for q, w in states.pairs:
                best = min(best, w + self.fst.final(q))
            stop = states.final_best = None if math.isinf(best) else best
        return stop

    def words(self, strings: list[tuple[int, ...]]) -> list[tuple[WordParse, ...]]:
        """Every word string each finished token string spells, as
        ``(lm_cost, olabels, words)`` sorted by cost and then output labels;
        empty when no path accepts it.  The strings not seen before are
        recovered together, in one :func:`output_weights_batch` walk that
        shares their common prefixes, and each result is remembered; a
        string seen before is a dict lookup.  The results are returned from
        this call's own reads, so a bound reached while storing them loses
        none."""
        memo = self._words
        found = [memo.get(tokens) for tokens in strings]
        if None in found:
            unseen = list(dict.fromkeys(tokens for tokens, parses in zip(strings, found) if parses is None))
            decode, fresh = self.fst.osyms.decode, {}
            for tokens, weights in zip(unseen, output_weights_batch(self.fst, unseen)):
                parses = fresh[tokens] = tuple(sorted((w, ols, decode(ols)) for ols, w in weights.items()))
                self._store()
                self._words[tokens] = parses
            found = [fresh[tokens] if parses is None else parses for tokens, parses in zip(strings, found)]
        return found


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
        self.lg: WeightedFst | None = None
        if lexicon_fst is not None:
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


def _expand(
    scorer, utt: Utterance, config: DecodeConfig, graph: FusionGraph | None
) -> tuple[list[tuple], bool]:
    """Shared beam core; ``graph`` None gives the plain model-score search.

    A live entry is the plain tuple ``(total, tokens, model_score, lm_cost,
    coverage, lm_state, scorer_state)``, the scorer state being the
    parent's after the parent's step, and a finished entry is ``(total,
    tokens, model_score, lm_cost, coverage)``.  No two finished entries, and
    no two live entries of one depth, hold the same tokens, so the leading
    ``(total, tokens)`` pair decides every comparison: the entries sort
    natively, and no comparison reaches a state.  Each depth makes one
    scorer step over every live entry at once, and one coverage count when
    ``coverage_weight`` is positive.

    It returns ``(entries, complete)``: at most ``nbest_size`` finished
    entries in ``(total, tokens)`` order and True, or, when nothing
    finished, the first five fields of the best live entries and False.
    Either way an entry holds the fields of a :class:`Hypothesis`, in its
    order.  No result object is built here: :func:`beam_search` and
    :func:`fused_beam_search` name the entries with ``Hypothesis._make``,
    :func:`decode` reads words straight from them, and
    :func:`nbest_rescore` ranks the entries themselves.

    A child's ``total`` is worked out before anything is built for it.  A
    candidate is the tuple ``(total, parent's tokens, tid, score, ahead,
    parent's index)``: the live entries at one depth all hold as many
    tokens and no two hold the same ones, so the parent's tokens, then the
    token id, order children exactly as their own token tuples do, and the
    candidates sort as the children would.  The tuples are compared only on
    a cost tie.  A depth's candidates are kept in a buffer of at most
    ``2 * beam_width``; when it fills, it is sorted and cut back to
    ``beam_width``, and ``cut`` becomes the last kept total.  A child whose
    total is above ``cut`` has ``beam_width`` candidates strictly ahead of
    it, so sorting every child would never keep it: its tuple is never
    built.  A child tied with ``cut`` is kept for the final sort to order.
    This is histogram pruning with the beam width as the survivor count,
    and it keeps exactly the children a sort of all of them keeps.  A fused
    parent's children come from its label table, :meth:`FusionGraph.ahead`,
    which gives each child's lattice cost without building its state set.
    Only the ``beam_width`` cheapest candidates get
    :meth:`FusionGraph.advance`, a token tuple and a live entry.

    A scorer step returns one row per live entry; any other count raises
    :class:`DecodeError`.  A row holds log-probabilities, None where a
    probability is 0, and the beam reads them as they are: it takes no log
    itself.  The scorer takes them with ``math.log``; a table takes one per
    distinct probability, at an utterance's first start, so its logs cost
    nothing at any depth.

    Finished entries go into ``best``, the bounded n-best itself: at most
    ``nbest_size`` of them in ``(total, tokens)`` order; once it is full,
    one that would sort after its last entry is not kept.  Threshold pruning
    keeps it exactly the unpruned beam's.  Once it is full, the bar is the
    cost of its last entry.  Along any path ``-score + lm_weight * lm_cost``
    never falls: each step adds ``-log p >= 0``, and ``StateSet.best`` and
    ``graph.final_best`` cannot fall, as :class:`FusionGraph` refuses a
    negative weight.  The coverage reward takes at most ``coverage_weight *
    cap`` off a cost, where ``cap = max(steps + 1, frames)`` bounds what
    ``covered()`` can reach; when that ``slack`` is not finite the search
    raises :class:`DecodeError` before it starts, so no cost is ever
    ``inf - inf``.  So a live entry whose ``-score + lm_weight * lm_cost -
    coverage_weight * cap`` is strictly above the bar can only finish behind
    the n-best.  Without a coverage reward that bound is the
    entry's own cost: the beam drops its entries above the bar, and those it
    keeps are the ones the unpruned beam keeps at or under it.  With a
    coverage reward a cost can fall along a path, so a dropped entry's
    children might have pushed kept ones out of the beam; the search then
    only stops once every live entry is above the bar.
    """
    alphabet = scorer.alphabet
    try:
        eos = alphabet.id(EOS)
    except FstError as e:
        raise DecodeError(f"scorer alphabet lacks {EOS}: {e}") from e
    lam = config.lm_weight  # 0 without a graph: DecodeConfig refuses any other
    eta = config.coverage_weight
    steps = min(config.max_steps, scorer.token_limit(utt))
    slack = eta * max(steps + 1, utt.features.shape[0])
    if not math.isfinite(slack):
        raise _overflow(config)
    nbest = config.nbest_size
    width = config.beam_width
    room = 2 * width
    start_state = graph.start if graph is not None else None
    start_cost = start_state.best if graph is not None else 0.0
    live = [(lam * start_cost, (), 0.0, start_cost, 0, start_state, scorer.start(utt))]
    best: list[tuple[float, tuple[int, ...], float, float, int]] = []
    unfused = [(tid, 0.0) for tid in range(len(alphabet))]
    for depth in range(steps + 1):
        extend = depth < steps
        prev = [e[1][-1] if e[1] else None for e in live]
        logs, states = step_distributions(scorer, [e[6] for e in live], prev)
        covs = coverage_count(scorer, states, config.coverage_threshold) if eta > 0.0 else [0] * len(live)
        if len(logs) != len(live):
            raise DecodeError(
                f"the scorer returned {len(logs)} rows for {len(live)} live hypotheses; "
                f"a step returns one row per hypothesis"
            )
        candidates: list[tuple[float, tuple[int, ...], int, float, float, int]] = []
        cut = math.inf
        for i, (_, tokens, model_score, _, _, lm_state, _) in enumerate(live):
            row, cov = logs[i], covs[i]
            lp = row[eos]
            if lp is not None:
                score = model_score + lp
                stop = graph.final_best(lm_state) if graph is not None else 0.0
                if stop is not None:
                    entry = (-score + lam * stop - eta * cov, tokens, score, stop, cov)
                    if len(best) < nbest or entry < best[-1]:
                        bisect.insort(best, entry)
                        del best[nbest:]
            if not extend:
                continue
            children = graph.ahead(lm_state).items() if graph is not None else unfused
            for tid, ahead in children:
                lp = row[tid]
                if lp is not None and tid != eos:
                    score = model_score + lp
                    total = -score + lam * ahead - eta * cov
                    if total <= cut:
                        candidates.append((total, tokens, tid, score, ahead, i))
                        if len(candidates) == room:
                            candidates.sort()
                            del candidates[width:]
                            cut = candidates[-1][0]
        if not extend or not candidates:
            break
        candidates.sort()
        parents, live = live, []
        for total, tokens, tid, score, ahead, i in candidates[:width]:
            nxt = graph.advance(parents[i][5], tid) if graph is not None else None
            live.append((total, (*tokens, tid), score, ahead, covs[i], nxt, states[i]))
        if len(best) == nbest:
            bar = best[-1][0]
            if eta == 0.0:
                while live and live[-1][0] > bar:
                    live.pop()
            elif all(-e[2] + lam * e[3] - slack > bar for e in live):
                live = []
            if not live:
                break
    if best:
        return best, True
    return [e[:5] for e in live[:nbest]], False


def _overflow(config: DecodeConfig) -> DecodeError:
    """The error for weights whose costs overflow a float."""
    return DecodeError(
        f"the weights overflow to a cost that is not finite: lm_weight {config.lm_weight!r}, "
        f"lm_weight_nbest {config.lm_weight_nbest!r}, coverage_weight {config.coverage_weight!r}"
    )


def beam_search(scorer, utt: Utterance, config: DecodeConfig) -> NBestList:
    """Plain beam search over scorer distributions, no lattice involved;
    the hypotheses are :func:`_expand`'s entries, named."""
    if config.fusion in ("beam", "both"):
        raise DecodeError(f"beam_search does not fuse; got fusion {config.fusion!r}")
    entries, complete = _expand(scorer, utt, config, None)
    return NBestList(tuple(map(Hypothesis._make, entries)), complete)


def fused_beam_search(scorer, graph: FusionGraph, utt: Utterance, config: DecodeConfig) -> NBestList:
    """Beam search with lattice prefix costs folded into the ranking.

    ``graph`` is the lattice relabeled to the scorer's alphabet, as
    :meth:`DecodeResources.graph_for` returns it.  Hypotheses whose token
    prefix leaves the lattice are pruned, and <eos> is only allowed where
    the state set can stop.  The hypotheses are :func:`_expand`'s
    entries, named.
    """
    if config.fusion not in ("beam", "both"):
        raise DecodeError(f"fused_beam_search requires fusion beam or both, got {config.fusion!r}")
    entries, complete = _expand(scorer, utt, config, graph)
    return NBestList(tuple(map(Hypothesis._make, entries)), complete)


def nbest_rescore(
    entries: list[tuple],
    graph: FusionGraph,
    lm_weight: float,
    *,
    nbest_size: int = DecodeConfig.nbest_size,
    coverage_weight: float = DecodeConfig.coverage_weight,
) -> tuple[tuple[WordHypothesis, ...], int]:
    """Turn the entries :func:`_expand` returns into ranked word
    hypotheses; returns ``(hypotheses, unparsed)``.

    Only an entry's tokens, model score and coverage are read, from fields
    1, 2 and 4, so finished and live entries rescore alike.  Every distinct
    word string an entry spells competes separately, at its cheapest
    lattice cost, so homophones are resolved by the combined cost rather
    than collapsed before ranking.  Entries with no accepting path are
    dropped and counted in ``unparsed``.  The word strings come from
    :meth:`FusionGraph.words`, so a token string met again, at another
    weight of a sweep, costs no lattice pass.

    The pool is ranked as plain tuples ``(total, words, tokens,
    model_score, lm_cost, coverage)``, in ``(total, words, tokens)`` order,
    and a :class:`WordHypothesis` is built only for the ``nbest_size`` kept.
    The entries hold distinct tokens, and distinct output labels spell
    distinct words, so the first three fields decide every comparison.
    """
    pool: list[tuple[float, tuple[str, ...], tuple[int, ...], float, float, int]] = []
    unparsed = 0
    for entry, found in zip(entries, graph.words([e[1] for e in entries])):
        tokens, score, cov = entry[1], entry[2], entry[4]
        if not found:
            unparsed += 1
        for lm_cost, _, words in found:
            total = -score + lm_weight * lm_cost - coverage_weight * cov
            pool.append((total, words, tokens, score, lm_cost, cov))
    pool.sort()
    kept = tuple(
        WordHypothesis(words, total, score, lm_cost, cov, tokens)
        for total, words, tokens, score, lm_cost, cov in pool[:nbest_size]
    )
    return kept, unparsed


def _split_graphemes(entry: tuple, alphabet: SymbolTable) -> WordHypothesis:
    """Words from the grapheme tokens of one :func:`_expand` entry, split
    at <space>."""
    total, tokens, score, _, cov = entry
    space = alphabet.id(SPACE)
    words: list[str] = []
    piece: list[str] = []
    for tid in tokens:
        if tid == space:
            if piece:
                words.append("".join(piece))
            piece = []
        else:
            piece.append(alphabet.sym(tid))
    if piece:
        words.append("".join(piece))
    return WordHypothesis(tuple(words), total, score, 0.0, cov, tokens)


def _best_words(entries: list[tuple], graph: FusionGraph) -> list[WordHypothesis | None]:
    """The cheapest word string for each fused :func:`_expand` entry, ties
    broken by output labels; None for one that no path accepts.  It is the
    first parse :meth:`FusionGraph.words` gives, which recovers the entries'
    token strings in one call."""
    return [
        WordHypothesis(found[0][2], e[0], e[2], e[3], e[4], e[1]) if found else None
        for e, found in zip(entries, graph.words([e[1] for e in entries]))
    ]


@dataclass(frozen=True)
class DecodeResult:
    """Decoded words for one utterance plus the ranked alternatives."""

    uid: str
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
            "strategy": self.config.fusion,
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
    """Run one utterance through the configured strategy.

    The words are read straight from the entries :func:`_expand` returns:
    fusion ``none`` splits each at <space>, ``beam`` takes each one's
    cheapest word string, and ``nbest`` and ``both`` hand the entries to
    :func:`nbest_rescore`.  No mode builds a :class:`Hypothesis` or an
    :class:`NBestList`.  Fused weights so large that a total is not finite
    raise :class:`DecodeError`."""
    if config.fusion == "none":
        if SPACE not in scorer.alphabet:
            raise DecodeError(f"fusion 'none' splits words at {SPACE}, absent from the alphabet")
        entries, complete = _expand(scorer, utt, config, None)
        hyps = tuple(_split_graphemes(e, scorer.alphabet) for e in entries)
        return DecodeResult(utt.uid, config, hyps, complete, 0)
    if resources is None:
        raise DecodeError(f"fusion {config.fusion!r} requires decode resources")
    graph = resources.graph_for(scorer.alphabet)
    entries, complete = _expand(scorer, utt, config, None if config.fusion == "nbest" else graph)
    if config.fusion == "beam":
        found = _best_words(entries, graph)
        hyps = tuple(wh for wh in found if wh is not None)
        unparsed = len(found) - len(hyps)
    else:  # nbest, where lm_weight and coverage_weight are 0, or both
        hyps, unparsed = nbest_rescore(
            entries,
            graph,
            config.lm_weight + config.lm_weight_nbest,
            nbest_size=config.nbest_size,
            coverage_weight=config.coverage_weight,
        )
    if not all(math.isfinite(h.total_cost) for h in hyps):
        raise _overflow(config)
    return DecodeResult(utt.uid, config, hyps, complete, unparsed)


def decode_batch(
    scorer, resources: DecodeResources | None, utts: list[Utterance], config: DecodeConfig
) -> list[DecodeResult]:
    """Decode many utterances, one :func:`decode` each, in input order; a
    scorer the fusion graph does not fit fails before the first decode."""
    if config.fusion != "none" and resources is not None:
        resources.graph_for(scorer.alphabet)
    return [decode(scorer, resources, u, config) for u in utts]
