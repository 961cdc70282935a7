"""The benchmark's three workloads.

Each workload builds its inputs from the seed (untimed), then gives the
runner three things: ``setup()``, the program's own preparation before the
first decode, which is timed and repeated; ``run_round()``, one whole round
of decodes, always the same operations; and ``check_round()``, which checks
every decode of that round with the code in ``checks``.  The program is only
ever handed the generated inputs: lexicon and ARPA text files, emission
tables, feature frames.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from fusedec import decoder, lexicon, ngram, scorer, sweep, synth
from fusedec.decoder import DecodeConfig, DecodeResources
from fusedec.fst import SymbolTable

import checks

EOW = lexicon.EOW


class Outcome:
    """What one round's checks found: operations attempted and failed, and
    any check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def _lm_setup(lexicon_path: Path, arpa_path: Path, eow_mode: str, alphabet):
    """Lexicon and ARPA text to a ready fusion graph, the way ``fusedec
    decode`` prepares one."""
    lex = lexicon.parse_lexicon(lexicon_path.read_text(encoding="utf-8"))
    lm = ngram.read_arpa(arpa_path)
    resources = DecodeResources(lexicon.compile_lexicon(lex, eow_mode), ngram.lm_to_fst(lm))
    resources.graph_for(alphabet)
    return resources, lm


def _write_inputs(workdir: Path, name: str, lexicon_text: str, lm) -> tuple[Path, Path]:
    lexicon_path = workdir / f"{name}.lexicon.txt"
    lexicon_path.write_text(lexicon_text, encoding="utf-8")
    arpa_path = workdir / f"{name}.arpa"
    ngram.write_arpa(lm, arpa_path)
    return lexicon_path, arpa_path


def _prons(lexicon_text: str) -> dict[str, set[tuple[str, ...]]]:
    out: dict[str, set[tuple[str, ...]]] = {}
    for line in lexicon_text.splitlines():
        word, pron = line.split("\t")
        out.setdefault(word, set()).add(tuple(pron.split()))
    return out


class TableWorkload:
    """Shared checks for the workloads decoded from emission tables."""

    eow_mode = "optional"
    ops_per_round = 0
    latency_skip: frozenset[str] = frozenset()

    def setup_key(self, state):
        return (state[0].lg.num_states, len(state[0].lg.arcs))

    def final_problems(self) -> list[str]:
        return []

    def _check_decodes(self, records, out: Outcome, lm, prons, table) -> None:
        for uid, _, _, result in records:
            out.attempted += 1
            out.problems += checks.table_problems(
                result, table.rows[uid], table.alphabet, prons, EOW, self.eow_mode == "optional"
            )
            if not checks.lm_cost_exact(result, lm, ngram.score_sequence):
                out.failed += 1


# -- noisy_sweep ---------------------------------------------------------------

NOISY_LEXICON = "two\tt\ntoo\tt\none\to\nten\tn\nsix\ts\n"
NOISY_CORPUS = (
    [["one", "two"]] * 40 + [["six", "too"]] * 40 + [["ten", "one", "two"]] * 10
    + [["one", "two", "six", "too"]] * 10 + [["six", "too", "ten"]] * 8
    + [["ten", "six", "too"]] * 6 + [["one", "six", "too"]] * 3 + [["one", "ten"]]
    + [["six", "one", "two"]] + [["ten", "ten"]]
)
NOISY_POOL = 2000
# Utterances per sentence length (6 stands for 6 or more words): the noisy
# LM's own length mix, per 200.  Drawing these counts from a larger seeded
# pool keeps the slowest tenth of the utterances the same kind on every
# seed, where 200 free draws put the 90th percentile among 3- or 4-word
# sentences depending on the seed.
NOISY_QUOTA = {1: 11, 2: 142, 3: 22, 4: 14, 5: 7, 6: 4}
BEAM_GRID = [round(0.02 * i, 2) for i in range(16)]
SPLIT_GRID = [(round(0.02 * i, 2), round(0.1 - 0.02 * i, 2)) for i in range(6)]


def noisy_task(seed: int, count: int | None = None) -> synth.SynthTask:
    """The acceptance-5/6 task at noise 0.2: ``count`` utterances as drawn,
    or by default NOISY_QUOTA's length mix from a pool of NOISY_POOL."""
    lm = ngram.train_ngram(NOISY_CORPUS, 2, "absdisc")
    lex = lexicon.parse_lexicon(NOISY_LEXICON)
    task = synth.synth_corpus(seed, lex, lm, count or NOISY_POOL, 0.2)
    if count:
        return task
    want = dict(NOISY_QUOTA)
    kept = []
    for utt in task.utterances:
        n = min(len(utt.words), max(want))
        if want[n]:
            want[n] -= 1
            kept.append(utt)
    return synth.SynthTask(lex, lm, tuple(kept), task.noise, seed)


class NoisySweep(TableWorkload):
    """The acceptance-5/6 fixture: five homophone-rich words, an absdisc
    bigram, 200 utterances at noise 0.2 scored by a peak-0.35 table, swept
    over 16 in-beam weights and 6 beam/rescore splits."""

    setup_repeats = 101

    def __init__(self, seed: int, workdir: Path):
        self.task = noisy_task(seed)
        lm = self.task.lm
        self.table, self.utts = synth.build_table_scorer(self.task, peak=0.35)
        self.paths = _write_inputs(workdir, "noisy", NOISY_LEXICON, lm)
        self.prons = _prons(NOISY_LEXICON)
        self.refs = [u.words for u in self.task.utterances]
        self.ops_per_round = len(self.utts) * (len(BEAM_GRID) + len(SPLIT_GRID))

    def setup(self):
        return _lm_setup(*self.paths, self.eow_mode, self.table.alphabet)

    def run_round(self, state):
        resources, _ = state
        cfg = DecodeConfig(eow_mode=self.eow_mode)
        kw = {"scorer": self.table, "utterances": self.utts}
        return (
            sweep.sweep_lmw(self.task, resources, cfg, BEAM_GRID, "beam", **kw),
            sweep.sweep_lmw(self.task, resources, cfg, SPLIT_GRID, "split", **kw),
        )

    def check_round(self, state, records, swept) -> Outcome:
        _, lm = state
        out = Outcome()
        self._check_decodes(records, out, lm, self.prons, self.table)
        points = [p for result in swept for p in result.points]
        n = len(self.utts)
        if len(records) != n * len(points):
            out.problems.append(f"{len(records)} decodes for {len(points)} sweep points")
            return out
        for k, point in enumerate(points):
            if point.error is not None:
                out.problems.append(f"sweep point {k} failed: {point.error}")
                continue
            pairs = [(ref, rec[3].words) for ref, rec in zip(self.refs, records[k * n:(k + 1) * n])]
            out.problems += checks.wer_problems(pairs, point.breakdown, f"sweep point {k}")
        beam_wers = [p.breakdown.wer for p in swept[0].points if p.breakdown is not None]
        if len(beam_wers) != len(BEAM_GRID) or not min(beam_wers) < beam_wers[0]:
            out.problems.append(f"no beam weight beats weight 0: {beam_wers}")
        return out


# -- trigram_lexicon -----------------------------------------------------------

LEX_WORDS = 200
LEX_PHONES = 24
LM_SENTENCES = 3000
LM_ORDER = 2
UTT_LENGTHS = (3, 4, 5, 6, 7)
TRIGRAM_UTTS = 100
TRIGRAM_NOISE = 0.1

# A fixed order-3 fixture whose backoff graph undercuts the query rule on
# "pe mi pe mi" by 0.21 nats: lm_to_fst's epsilon backoff lets the best path
# back off early into a cheaper context.  Its decodes fail the lm_cost check
# on every run until the graph follows backoff exactly.
PROBE_WORDS = ("ka", "lo", "mi", "nu", "pe")
PROBE_SEED = 2
PROBE_SENTENCE = ("pe", "mi", "pe", "mi")
PROBE_UID = "probe-order3"


class WordChain:
    """A sparse Zipf-weighted word chain: every word has eight successors,
    weighted 1, 1/2, ..., 1/8."""

    def __init__(self, rng, words):
        self.words = words
        self.zipf = 1.0 / np.arange(1, len(words) + 1)
        self.zipf /= self.zipf.sum()
        self.weights = 1.0 / np.arange(1, 9)
        self.weights /= self.weights.sum()
        self.successors = [rng.choice(len(words), size=8, replace=False, p=self.zipf) for _ in words]

    def sentence(self, rng, length: int | None = None) -> list[str]:
        """Exactly ``length`` words, or up to 10 stopping with chance 0.2."""
        w = int(rng.choice(len(self.words), p=self.zipf))
        out = [self.words[w]]
        while (len(out) < length) if length else (len(out) < 10 and rng.random() > 0.2):
            w = int(self.successors[w][rng.choice(8, p=self.weights)])
            out.append(self.words[w])
        return out


def _lexicon_chain(rng):
    """A lexicon of LEX_WORDS words over LEX_PHONES phones, a third each of
    2, 3 and 4 phones, one word in ten a homophone of an earlier word, and
    the word chain that makes the LM corpus.  Only the choices are random,
    not the proportions, so every seed builds a graph of about the same
    size."""
    phones = [f"p{i:02d}" for i in range(LEX_PHONES)]
    words = [f"w{i:03d}" for i in range(LEX_WORDS)]
    lengths = rng.permutation([2 + i % 3 for i in range(LEX_WORDS)])
    homophones = set(rng.choice(np.arange(10, LEX_WORDS), size=LEX_WORDS // 10, replace=False).tolist())
    prons: dict[str, tuple[str, ...]] = {}
    for i, word in enumerate(words):
        if i in homophones:
            prons[word] = prons[words[int(rng.integers(i))]]
            continue
        while True:
            pron = tuple(phones[int(k)] for k in rng.integers(LEX_PHONES, size=int(lengths[i])))
            if pron not in prons.values():
                break
        prons[word] = pron
    return prons, WordChain(rng, words)


def _render(rng, uid: str, words, lex, noise: float) -> synth.SynthUtterance:
    """Phones of a random pronunciation per word, each confused with another
    phone at the noise rate, ``<eow>`` after every word; the same rendering
    as ``synth.synth_corpus``, for a word string chosen here."""
    phones = synth.real_phones(lex)
    targets, frames = [], []
    for w in words:
        prons = lex.entries[w]
        for ph in prons[int(rng.integers(len(prons)))]:
            if rng.random() < noise:
                others = [p for p in phones if p != ph]
                ph = others[int(rng.integers(len(others)))]
            targets.append(ph)
            frames.append(ph)
        targets.append(EOW)
    feats = np.zeros((len(frames), len(phones)))
    for t, ph in enumerate(frames):
        feats[t, phones.index(ph)] = 1.0
    feats += rng.normal(0.0, noise, feats.shape)
    return synth.SynthUtterance(uid, tuple(words), tuple(targets), feats)


def _probe(workdir: Path):
    rng = np.random.default_rng(PROBE_SEED)
    sentences = [
        [PROBE_WORDS[int(i)] for i in rng.integers(5, size=int(rng.integers(1, 5)))]
        for _ in range(40)
    ]
    lm = ngram.train_ngram(sentences, 3, "absdisc")
    text = "".join(f"{w}\t{w[0]}\n" for w in PROBE_WORDS)
    alphabet = SymbolTable([*(w[0] for w in PROBE_WORDS), EOW, "<sos>", "<eos>"])
    resources, lm = _lm_setup(*_write_inputs(workdir, "probe", text, lm), "required", alphabet)
    targets = [s for w in PROBE_SENTENCE for s in (w[0], EOW)] + ["<eos>"]
    rows = np.zeros((len(targets), len(alphabet)))
    for k, sym in enumerate(targets):
        rows[k, alphabet.id(sym)] = 1.0
    table = scorer.TableScorer(alphabet, {PROBE_UID: rows})
    utt = scorer.Utterance(PROBE_UID, np.zeros((1, 1)), alphabet.encode(targets))
    return table, utt, resources, lm, _prons(text)


class TrigramLexicon(TableWorkload):
    """A seeded 200-word lexicon with homophones, an absdisc LM from 3000
    seeded sentences, 100 noisy utterances of 3 to 7 words (a fifth of
    each) decoded with fusion both and nbest, plus the fixed order-3 probe
    decoded the same two ways."""

    setup_repeats = 15
    latency_skip = frozenset({PROBE_UID})
    configs = (
        DecodeConfig(fusion="both", lm_weight=0.05, lm_weight_nbest=0.05, eow_mode="optional"),
        DecodeConfig(fusion="nbest", lm_weight_nbest=0.1, eow_mode="optional"),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        prons, chain = _lexicon_chain(rng)
        sentences = [chain.sentence(rng) for _ in range(LM_SENTENCES)]
        seen = {w for s in sentences for w in s}
        text = "".join(f"{w}\t{' '.join(p)}\n" for w, p in prons.items() if w in seen)
        lm = ngram.train_ngram(sentences, LM_ORDER, "absdisc")
        lex = lexicon.parse_lexicon(text)
        lengths = rng.permutation([UTT_LENGTHS[i % len(UTT_LENGTHS)] for i in range(TRIGRAM_UTTS)])
        utts = []
        for i, n in enumerate(lengths):
            words = chain.sentence(rng, int(n))
            while not seen.issuperset(words):
                words = chain.sentence(rng, int(n))
            utts.append(_render(rng, f"utt{i:04d}", words, lex, TRIGRAM_NOISE))
        self.task = synth.SynthTask(lex, lm, tuple(utts), TRIGRAM_NOISE, seed)
        self.table, self.utts = synth.build_table_scorer(self.task, peak=0.6)
        self.paths = _write_inputs(workdir, "trigram", text, lm)
        self.prons = _prons(text)
        self.probe = _probe(workdir)
        self.ops_per_round = (len(self.utts) + 1) * len(self.configs)

    def setup(self):
        return _lm_setup(*self.paths, self.eow_mode, self.table.alphabet)

    def run_round(self, state):
        resources, _ = state
        table, utt, probe_resources, _, _ = self.probe
        out = []
        for cfg in self.configs:
            out.append(decoder.decode_batch(self.table, resources, self.utts, cfg))
            decoder.decode_batch(table, probe_resources, [utt], cfg)
        return out

    def check_round(self, state, records, decoded) -> Outcome:
        _, lm = state
        out = Outcome()
        main = [r for r in records if r[0] != PROBE_UID]
        self._check_decodes(main, out, lm, self.prons, self.table)
        table, _, _, probe_lm, probe_prons = self.probe
        self._check_decodes([r for r in records if r[0] == PROBE_UID], out, probe_lm, probe_prons, table)
        refs = [u.words for u in self.task.utterances]
        for cfg, results in zip(self.configs, decoded):
            pairs = [(ref, res.words) for ref, res in zip(refs, results)]
            out.problems += checks.wer_problems(
                pairs, sweep.corpus_wer(pairs), f"corpus wer, fusion {cfg.fusion}"
            )
        return out


# -- las_decode ----------------------------------------------------------------

GRAPHEME_WORDS = {"go": "g o", "to": "t o", "sun": "s u n",
                  "sea": "s e a", "ten": "t e n", "net": "n e t"}
LAS_UTTS = 16
LAS_EPOCHS = 200
LAS_MAX_WER = 0.02


class LasDecode:
    """The acceptance-8 grapheme fixture: a toy attention model trained in
    set-up on LAS_UTTS utterances of 1, 2, 3, 1, 2, ... words, saved and
    loaded back; each round decodes them all with fusion none and beam 8.
    Decode time grows with the number of frames, so the word counts are
    fixed and only the words are drawn."""

    setup_repeats = 3
    ops_per_round = LAS_UTTS
    latency_skip: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path):
        letters = sorted({ch for sp in GRAPHEME_WORDS.values() for ch in sp.split()})
        self.alphabet = SymbolTable([*letters, "<space>", "<sos>", "<eos>"])
        rng = np.random.default_rng(seed)
        names = sorted(GRAPHEME_WORDS)
        self.utts, self.refs = [], []
        for i in range(LAS_UTTS):
            words = [names[int(rng.integers(len(names)))] for _ in range(1 + i % 3)]
            graphemes = " <space> ".join(GRAPHEME_WORDS[w] for w in words).split()
            feats = np.zeros((len(graphemes), len(self.alphabet)))
            for t, g in enumerate(graphemes):
                feats[t, self.alphabet.id(g)] = 1.0
            ids = (*self.alphabet.encode(graphemes), self.alphabet.id("<eos>"))
            self.utts.append(scorer.Utterance(f"utt{i:04d}", feats, ids))
            self.refs.append(tuple(words))
        self.model_seed = seed
        self.checkpoint = workdir / "las.ckpt"
        self.config = DecodeConfig(fusion="none", beam_width=8)
        self.errors = 0
        self.words = 0

    def setup(self):
        model = scorer.ToyLasModel.init(
            self.alphabet, len(self.alphabet), enc_hidden=16, dec_hidden=16,
            att_dim=8, embed_dim=8, seed=self.model_seed,
        )
        scorer.train_model(model, self.utts, LAS_EPOCHS, 0.05, "adam")
        scorer.save_checkpoint(model, self.checkpoint)
        return DecodeResources(), scorer.load_checkpoint(self.checkpoint)

    def setup_key(self, state):
        return tuple((k, v.tobytes()) for k, v in sorted(state[1].params.items()))

    def run_round(self, state):
        resources, model = state
        return decoder.decode_batch(model, resources, self.utts, self.config)

    def check_round(self, state, records, decoded) -> Outcome:
        _, model = state
        out = Outcome()
        for (uid, _, _, result), utt, ref in zip(records, self.utts, self.refs):
            out.attempted += 1
            if uid != utt.uid:
                out.problems.append(f"decoded {uid} in place of {utt.uid}")
            out.problems += checks.las_problems(result, model, utt.features, self.alphabet)
            self.errors += checks.edit_distance(ref, tuple(result.words))
            self.words += len(ref)
        return out

    def final_problems(self) -> list[str]:
        if self.words and self.errors / self.words > LAS_MAX_WER:
            return [f"grapheme WER {self.errors}/{self.words} exceeds {LAS_MAX_WER:.0%}"]
        return []


WORKLOADS = {"noisy_sweep": NoisySweep, "trigram_lexicon": TrigramLexicon, "las_decode": LasDecode}
