"""Backoff n-gram language models: estimation, scoring, ARPA files, FST export.

Probabilities are kept as natural logs internally; the ARPA text format is the
conventional log10.  Two estimators are supported: unsmoothed maximum
likelihood, and interpolated absolute discounting with a fixed discount.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Mapping, Sequence

from .fst import EPSILON, Arc, FstError, SymbolTable, WeightedFst, build_fst

SENT_START = "<s>"
SENT_END = "</s>"
UNK = "<unk>"

SMOOTHINGS = ("mle", "absdisc")

_LN10 = math.log(10.0)
_ARPA_SENTINEL = -99.0  # conventional placeholder log10 prob for <s>

NEG_INF = -math.inf


class NGramError(ValueError):
    """Bad training request, malformed ARPA text, or invalid query."""


@dataclass(frozen=True, eq=False)
class NGramModel:
    """A backoff model: stored conditionals plus per-context backoff weights.

    ``probs`` maps gram id-tuples (all orders up to ``order``) to natural-log
    conditionals.  ``backoffs`` maps context id-tuples to natural-log backoff
    weights; a context with a distribution but no entry does not back off
    (its unseen continuations have probability zero), which is how the
    unsmoothed estimator stays honest.
    """

    order: int
    vocab: SymbolTable
    probs: dict[tuple[int, ...], float]
    backoffs: dict[tuple[int, ...], float]
    contexts: frozenset[tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "contexts", frozenset(g[:-1] for g in self.probs))

    @property
    def bos_id(self) -> int:
        return self.vocab.id(SENT_START)

    @property
    def eos_id(self) -> int:
        return self.vocab.id(SENT_END)

    def conditional_logp(self, context: Sequence[int], word_id: int) -> float:
        """Natural-log P(word | context) under the backoff query rule.

        The longest stored suffix of the context is used; a context with a
        distribution charges its backoff weight when shortening, while an
        unknown context shortens freely.
        """
        ctx = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return _backoff_logp(self.probs, self.backoffs, self.contexts, ctx, word_id)


def _backoff_logp(
    probs: Mapping[tuple[int, ...], float],
    backoffs: Mapping[tuple[int, ...], float],
    contexts: Container[tuple[int, ...]],
    ctx: tuple[int, ...],
    word_id: int,
) -> float:
    """The backoff walk from ``ctx``: the longest stored gram ending in
    ``word_id``, plus the backoff weight of every stored context shortened
    on the way; a stored context without one ends the walk at ``-inf``."""
    acc = 0.0
    while True:
        p = probs.get(ctx + (word_id,))
        if p is not None:
            return acc + p
        if not ctx:
            return NEG_INF
        if ctx in contexts:
            bow = backoffs.get(ctx)
            if bow is None:
                return NEG_INF
            acc += bow
        ctx = ctx[1:]


def _normalize_corpus(corpus: Sequence[str | Sequence[str]]) -> list[list[str]]:
    if not isinstance(corpus, (list, tuple)):
        raise NGramError("corpus must be a list of sentences")
    if len(corpus) == 0:
        raise NGramError("corpus is empty")
    reserved = {SENT_START, SENT_END, EPSILON, UNK}
    sents = []
    for sent in corpus:
        words = sent.split() if isinstance(sent, str) else [str(w) for w in sent]
        for w in words:
            if w in reserved:
                raise NGramError(f"corpus uses reserved symbol {w!r}")
        sents.append(words)
    return sents


def check_discount(discount: float) -> None:
    """Refuse an absolute discount outside (0, 1)."""
    if not 0.0 < discount < 1.0:
        raise NGramError(f"discount must be in (0, 1), got {discount}")


def train_ngram(
    corpus: Sequence[str | Sequence[str]],
    order: int,
    smoothing: str = "absdisc",
    discount: float = 0.4,
) -> NGramModel:
    """Estimate a model of the given order (1..4) from whitespace-split or
    pre-tokenized sentences.

    ``smoothing="mle"`` stores plain relative frequencies with no backoff;
    ``"absdisc"`` subtracts ``discount`` from every observed count and
    interpolates with the next-lower order, bottoming out at a uniform
    distribution over the vocabulary.
    """
    if not isinstance(order, int) or not 1 <= order <= 4:
        raise NGramError(f"order must be an integer in 1..4, got {order!r}")
    if smoothing not in SMOOTHINGS:
        raise NGramError(f"smoothing must be one of {SMOOTHINGS}, got {smoothing!r}")
    check_discount(discount)
    sents = _normalize_corpus(corpus)
    # a dict keeps first-appearance order with constant-time membership
    vocab = SymbolTable(dict.fromkeys(itertools.chain([SENT_START, SENT_END], *sents)))
    bos, eos = vocab.id(SENT_START), vocab.id(SENT_END)

    counts: dict[tuple[int, ...], int] = {}
    for sent in sents:
        padded = [bos] + [vocab.id(w) for w in sent] + [eos]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i : i + k])
                if gram[-1] == bos:
                    continue
                counts[gram] = counts.get(gram, 0) + 1

    by_level: dict[int, dict[tuple[int, ...], int]] = {k: {} for k in range(1, order + 1)}
    for gram, c in counts.items():
        by_level[len(gram)][gram] = c

    if smoothing == "mle":
        probs = _estimate_mle(by_level)
        backoffs: dict[tuple[int, ...], float] = {}
    else:
        probs, backoffs = _estimate_absdisc(by_level, discount, n_events=len(vocab) - 2)

    return NGramModel(order, vocab, probs, backoffs)


def _estimate_mle(by_level: Mapping[int, dict[tuple[int, ...], int]]) -> dict[tuple[int, ...], float]:
    probs: dict[tuple[int, ...], float] = {}
    for level in by_level.values():
        totals: dict[tuple[int, ...], int] = {}
        for gram, c in level.items():
            totals[gram[:-1]] = totals.get(gram[:-1], 0) + c
        for gram, c in level.items():
            probs[gram] = math.log(c / totals[gram[:-1]])
    return probs


def _estimate_absdisc(
    by_level: Mapping[int, dict[tuple[int, ...], int]],
    discount: float,
    n_events: int,
) -> tuple[dict[tuple[int, ...], float], dict[tuple[int, ...], float]]:
    probs: dict[tuple[int, ...], float] = {}
    backoffs: dict[tuple[int, ...], float] = {}
    contexts: set[tuple[int, ...]] = set()
    uni = by_level[1]
    total = sum(uni.values())
    gamma = discount * len(uni) / total
    uniform = 1.0 / n_events
    for gram, c in uni.items():
        probs[gram] = math.log((c - discount) / total + gamma * uniform)
    contexts.add(())

    for k in sorted(by_level)[1:]:
        grouped: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for gram, c in by_level[k].items():
            grouped.setdefault(gram[:-1], []).append((gram[-1], c))
        for ctx, conts in grouped.items():
            tot = sum(c for _, c in conts)
            gamma = discount * len(conts) / tot
            backoffs[ctx] = math.log(gamma)
            contexts.add(ctx)
            for wid, c in conts:
                lower = _backoff_logp(probs, backoffs, contexts, ctx[1:], wid)
                probs[ctx + (wid,)] = math.log((c - discount) / tot + gamma * math.exp(lower))
    return probs, backoffs


def score_sequence(lm: NGramModel, words: Sequence[str]) -> float:
    """Natural-log probability of a whole sentence, including termination.

    Out-of-vocabulary words map to ``<unk>`` when the model lists it, as an
    ARPA file may, and otherwise make the score ``-inf``.
    """
    reserved = {SENT_START, SENT_END, EPSILON}
    ids: list[int] = []
    for w in words:
        if w in reserved:
            raise NGramError(f"{w!r} is a reserved symbol, not a word")
        wid = lm.vocab.find(w)
        if wid is None:
            wid = lm.vocab.find(UNK)
            if wid is None:
                return NEG_INF
        ids.append(wid)
    padded = (lm.bos_id, *ids, lm.eos_id)
    total = 0.0
    for i in range(1, len(padded)):
        total += lm.conditional_logp(padded[:i], padded[i])
    return total


def lm_to_fst(lm: NGramModel) -> WeightedFst:
    """Word acceptor with the standard backoff topology.

    One state per stored context plus a single final state.  Stored grams
    become word arcs with weight ``-ln p``; backoff weights become
    input-epsilon arcs to the shortened context; sentence-end probabilities
    become epsilon arcs into the final state, so accepted strings do not
    carry an explicit ``</s>`` token.

    The tropical semiring takes a minimum over backoff routes where true
    resolution follows the stored-gram-first rule.  For unsmoothed models
    (no backoff arcs) and for smoothed models up to order 2 (direct and
    backed-off arcs re-enter the same state, and the direct gram is never
    dearer than its backoff route) the best-path weight equals
    ``-score_sequence`` exactly.  At order 3 and up an early backoff can
    reach a shorter context whose later arcs are cheaper, so the best path
    may undercut the query rule; decoding is Viterbi throughout, so the
    optimistic bound is the accepted behavior.

    A backoff weight above 1 (log10 backoff > 0, which ``train_ngram`` never
    writes) raises :class:`NGramError`: its arc would be negative, which no
    fusion graph accepts, and clamping it to 0 would misprice every
    sentence that backs off through it.  The backoff weight of a context
    with no stored continuation gets no arc and no check: the query rule
    never charges it.
    """
    contexts = sorted(lm.contexts, key=lambda c: (len(c), c))
    state_of = {ctx: i for i, ctx in enumerate(contexts)}
    final_state = len(contexts)

    def resolve_state(ctx: tuple[int, ...]) -> int:
        while ctx not in state_of:
            ctx = ctx[1:]
        return state_of[ctx]

    arcs: list[Arc] = []
    for gram in sorted(lm.probs, key=lambda g: (len(g), g)):
        # P == 1 can round to 1 + ulp; keep arc weights out of negative territory
        cost = max(0.0, -lm.probs[gram])
        ctx, wid = gram[:-1], gram[-1]
        if wid == lm.bos_id:
            continue
        src = state_of[ctx]
        if wid == lm.eos_id:
            arcs.append(Arc(src, final_state, 0, 0, cost))
        else:
            nxt = gram if len(gram) < lm.order else gram[1:]
            arcs.append(Arc(src, resolve_state(nxt), wid, wid, cost))
    for ctx in sorted(lm.backoffs, key=lambda c: (len(c), c)):
        if ctx not in state_of:  # no stored continuation: the query rule shortens it freely
            continue
        bow = lm.backoffs[ctx]
        if bow > 0.0:
            raise NGramError(
                f"context '{' '.join(map(lm.vocab.sym, ctx))}' has log10 backoff {bow / _LN10:.6g}: "
                "a backoff weight above 1 would need a negative arc"
            )
        arcs.append(Arc(state_of[ctx], resolve_state(ctx[1:]), 0, 0, -bow))

    return build_fst(
        arcs,
        resolve_state((lm.bos_id,) if lm.order > 1 else ()),
        {final_state: 0.0},
        lm.vocab,
        lm.vocab,
        num_states=final_state + 1,
    )


def _format_log10(x: float) -> str:
    return f"{x / _LN10:.17g}"


def write_arpa(lm: NGramModel, path: str | Path) -> None:
    """Serialize in the ARPA subset this package reads back.

    Deviations from stock ARPA are deliberate and small: a missing backoff
    field means "no backoff" rather than an implicit zero log-backoff (so MLE
    models round-trip without inventing smoothing mass), and ``<s>`` carries
    the conventional -99 placeholder probability.
    """
    by_level: dict[int, list[tuple[tuple[int, ...], float | None]]] = {
        k: [] for k in range(1, lm.order + 1)
    }
    for gram, lnp in lm.probs.items():
        by_level[len(gram)].append((gram, lnp))
    bos_gram = (lm.bos_id,)
    if not any(g == bos_gram for g, _ in by_level[1]):
        by_level[1].append((bos_gram, None))

    lines = ["\\data\\"]
    for k in range(1, lm.order + 1):
        lines.append(f"ngram {k}={len(by_level[k])}")
    for k in range(1, lm.order + 1):
        lines.append("")
        lines.append(f"\\{k}-grams:")
        for gram, lnp in sorted(by_level[k], key=lambda e: e[0]):
            p10 = f"{_ARPA_SENTINEL:.17g}" if lnp is None else _format_log10(lnp)
            text = " ".join(lm.vocab.sym(i) for i in gram)
            bow = lm.backoffs.get(gram)
            if bow is not None:
                lines.append(f"{p10}\t{text}\t{_format_log10(bow)}")
            else:
                lines.append(f"{p10}\t{text}")
    lines += ["", "\\end\\", ""]
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def read_arpa(path: str | Path) -> NGramModel:
    """Parse the ARPA subset written by :func:`write_arpa`.  ``<eps>`` names
    the empty string, so a gram that uses it is refused, and so is a gram
    listed twice, a log10 value that is NaN or +inf, or a log10 probability
    above 0."""
    declared: dict[int, int] = {}
    # k -> gram -> (line, log10 p, log10 backoff or None), in file order
    entries: dict[int, dict[tuple[str, ...], tuple[int, float, float | None]]] = {}
    current: int | None = None
    in_data = False
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line == "\\data\\":
            in_data = True
            continue
        if line == "\\end\\":
            current = None
            continue
        if line.endswith("-grams:") and line.startswith("\\"):
            try:
                current = int(line[1:].split("-")[0])
            except ValueError:
                raise NGramError(f"{path}: line {lineno}: expected '\\k-grams:' with a number k") from None
            if current in entries:
                raise NGramError(f"{path}: line {lineno}: repeated \\{current}-grams: section")
            entries[current] = {}
            in_data = False
            continue
        if in_data:
            bad = f"{path}: line {lineno}: expected 'ngram k=N'"
            head, _, n_str = line.partition("=")
            if not head.startswith("ngram "):
                raise NGramError(bad)
            try:
                declared[int(head[len("ngram "):])] = int(n_str)
            except ValueError:
                raise NGramError(bad) from None
            continue
        if current is None:
            raise NGramError(f"{path}: line {lineno}: content outside any section")
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise NGramError(f"{path}: line {lineno}: expected 2 or 3 tab-separated fields")
        try:
            p10 = float(fields[0])
            bow10 = float(fields[2]) if len(fields) == 3 else None
        except ValueError:
            raise NGramError(f"{path}: line {lineno}: bad number") from None
        if any(math.isnan(x) or x == math.inf for x in (p10, bow10) if x is not None):
            raise NGramError(f"{path}: line {lineno}: a log10 value must be finite or -inf")
        if p10 > 0.0:
            raise NGramError(f"{path}: line {lineno}: a log10 probability must not be above 0")
        gram = tuple(fields[1].split())
        if len(gram) != current:
            raise NGramError(f"{path}: line {lineno}: {len(gram)}-gram in \\{current}-grams:")
        if EPSILON in gram:
            raise NGramError(f"{path}: line {lineno}: {EPSILON} is reserved for the empty string")
        first = entries[current].setdefault(gram, (lineno, p10, bow10))[0]
        if first != lineno:
            raise NGramError(f"{path}: line {lineno}: repeated gram '{' '.join(gram)}' (first on line {first})")

    if not entries:
        raise NGramError(f"{path}: no n-gram sections found")
    order = max(entries)
    for k, n in declared.items():
        if len(entries.get(k, ())) != n:
            raise NGramError(f"{path}: declared {n} {k}-grams, found {len(entries.get(k, ()))}")
    unigram_syms = [gram[0] for gram in entries.get(1, ())]
    for required in (SENT_START, SENT_END):
        if required not in unigram_syms:
            raise NGramError(f"{path}: missing {required} unigram")
    vocab = SymbolTable(unigram_syms)

    probs: dict[tuple[int, ...], float] = {}
    backoffs: dict[tuple[int, ...], float] = {}
    for k in sorted(entries):
        for gram_syms, (lineno, p10, bow10) in entries[k].items():
            try:
                gram = tuple(map(vocab.id, gram_syms))
            except FstError:
                raise NGramError(
                    f"{path}: line {lineno}: {' '.join(gram_syms)} uses a word with no unigram"
                ) from None
            if p10 > _ARPA_SENTINEL + 1.0:
                probs[gram] = p10 * _LN10
            if bow10 is not None:
                backoffs[gram] = bow10 * _LN10
    return NGramModel(order, vocab, probs, backoffs)
