import json

import numpy as np
import pytest

from fusedec.decoder import DecodeConfig, DecodeResources, decode_batch
from fusedec.lexicon import EOW, compile_lexicon, parse_lexicon
from fusedec.ngram import lm_to_fst, train_ngram
from fusedec.scorer import EOS
from fusedec.synth import (
    SynthError,
    build_table_scorer,
    load_task,
    real_phones,
    save_task,
    synth_corpus,
    task_alphabet,
    task_utterances,
)
from fusedec.wer import corpus_wer

LEX_TEXT = "sun\ts u n\nsea\ts i\ntide\tt i d\nlow\tl o\n"
LM_CORPUS = [
    ["sun", "sea"],
    ["tide", "low"],
    ["sun", "tide"],
    ["low", "sea"],
    ["sun"],
    ["sea", "tide", "low"],
]


@pytest.fixture(scope="module")
def lexicon():
    return parse_lexicon(LEX_TEXT)


@pytest.fixture(scope="module")
def lm():
    return train_ngram(LM_CORPUS, order=2, smoothing="absdisc")


class TestSampling:
    def test_same_seed_same_task(self, lexicon, lm):
        a = synth_corpus(3, lexicon, lm, 5, 0.3)
        b = synth_corpus(3, lexicon, lm, 5, 0.3)
        for ua, ub in zip(a.utterances, b.utterances):
            assert ua.words == ub.words
            assert ua.targets == ub.targets
            assert np.array_equal(ua.features, ub.features)

    def test_different_seeds_differ(self, lexicon, lm):
        a = synth_corpus(1, lexicon, lm, 8, 0.3)
        b = synth_corpus(2, lexicon, lm, 8, 0.3)
        assert any(ua.words != ub.words for ua, ub in zip(a.utterances, b.utterances)) or any(
            not np.array_equal(ua.features, ub.features)
            for ua, ub in zip(a.utterances, b.utterances)
        )

    def test_references_use_lexicon_words_only(self, lexicon, lm):
        task = synth_corpus(0, lexicon, lm, 20, 0.2)
        for utt in task.utterances:
            assert utt.words
            assert all(w in lexicon.entries for w in utt.words)

    def test_count_zero_is_valid(self, lexicon, lm):
        task = synth_corpus(0, lexicon, lm, 0, 0.0)
        assert task.utterances == ()

    def test_rejects_negative_count(self, lexicon, lm):
        with pytest.raises(SynthError, match="count"):
            synth_corpus(0, lexicon, lm, -1, 0.0)

    def test_rejects_bad_noise(self, lexicon, lm):
        with pytest.raises(SynthError, match="noise"):
            synth_corpus(0, lexicon, lm, 1, 1.0)

    def test_disjoint_vocabulary_is_an_error(self, lm):
        other = parse_lexicon("night\tn i t\n")
        with pytest.raises(SynthError, match="no vocabulary"):
            synth_corpus(0, other, lm, 1, 0.0)

    def test_dead_end_context_is_an_error(self):
        # moon never starts a sentence and the unsmoothed model cannot stop
        # at <s> either, so the masked distribution has no mass at all.
        lex = parse_lexicon("moon\tm u n\n")
        dead = train_ngram([["sun", "moon"]], order=2, smoothing="mle")
        with pytest.raises(SynthError, match="no mass"):
            synth_corpus(0, lex, dead, 1, 0.0)


class TestRendering:
    def test_clean_rendering_matches_lexicon(self, lexicon, lm):
        task = synth_corpus(11, lexicon, lm, 6, 0.0)
        for utt in task.utterances:
            spelled = []
            for w in utt.words:
                spelled.extend(lexicon.entries[w][0])
                spelled.append(EOW)
            assert utt.targets == tuple(spelled)
            n_frames = len(spelled) - len(utt.words)
            assert utt.features.shape == (n_frames, len(real_phones(lexicon)))
            onehot = np.zeros_like(utt.features)
            phones = [t for t in utt.targets if t != EOW]
            for t, ph in enumerate(phones):
                onehot[t, real_phones(lexicon).index(ph)] = 1.0
            assert np.array_equal(utt.features, onehot)

    def test_uids_are_sequential(self, lexicon, lm):
        task = synth_corpus(4, lexicon, lm, 3, 0.0)
        assert [u.uid for u in task.utterances] == ["utt0000", "utt0001", "utt0002"]

    def test_noise_corrupts_phones_but_not_boundaries(self, lexicon, lm):
        task = synth_corpus(8, lexicon, lm, 20, 0.5)
        corrupted = 0
        for utt in task.utterances:
            clean = []
            for w in utt.words:
                clean.extend(lexicon.entries[w][0])
                clean.append(EOW)
            assert len(utt.targets) == len(clean)
            assert utt.targets.count(EOW) == len(utt.words)
            assert [i for i, t in enumerate(utt.targets) if t == EOW] == [
                i for i, t in enumerate(clean) if t == EOW
            ]
            corrupted += sum(a != b for a, b in zip(utt.targets, clean))
        assert corrupted > 0

    def test_pronunciation_choice_varies(self, lm):
        lex = parse_lexicon("sun\ts u n\nsun\tz u n\nsea\ts i\n")
        seen = set()
        for seed in range(10):
            task = synth_corpus(seed, lex, lm, 10, 0.0)
            for utt in task.utterances:
                if utt.words == ("sun",):
                    seen.add(utt.targets)
        assert len(seen) == 2


class TestTableScorerBuild:
    def test_rows_are_stochastic_with_peak_on_target(self, lexicon, lm):
        task = synth_corpus(5, lexicon, lm, 4, 0.1)
        scorer, utts = build_table_scorer(task, peak=0.8)
        alphabet = scorer.alphabet
        for sutt in task.utterances:
            rows = scorer.rows[sutt.uid]
            seq = [*sutt.targets, EOS]
            assert rows.shape == (len(seq), len(alphabet))
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            for i, sym in enumerate(seq):
                assert rows[i, alphabet.id(sym)] == pytest.approx(0.8)
                if sym != EOW:
                    assert rows[i, alphabet.id(EOW)] == 0.0
                if sym != EOS:
                    assert rows[i, alphabet.id(EOS)] == 0.0

    def test_reference_encodes_targets(self, lexicon, lm):
        task = synth_corpus(5, lexicon, lm, 2, 0.0)
        scorer, utts = build_table_scorer(task)
        alphabet = scorer.alphabet
        for sutt, utt in zip(task.utterances, utts):
            assert alphabet.decode(utt.reference) == (*sutt.targets, EOS)

    def test_task_utterances_are_the_tables_utterances(self, lexicon, lm):
        task = synth_corpus(5, lexicon, lm, 4, 0.1)
        _, utts = build_table_scorer(task)
        alone = task_utterances(task)
        assert [(u.uid, u.reference) for u in alone] == [(u.uid, u.reference) for u in utts]
        assert all(np.array_equal(a.features, u.features) for a, u in zip(alone, utts))

    def test_eow_free_rows_with_floor(self, lexicon, lm):
        task = synth_corpus(5, lexicon, lm, 3, 0.0)
        scorer, utts = build_table_scorer(task, peak=0.9, include_eow=False, eow_floor=0.01)
        alphabet = scorer.alphabet
        eow = alphabet.id(EOW)
        for sutt, utt in zip(task.utterances, utts):
            rows = scorer.rows[sutt.uid]
            phones = [t for t in sutt.targets if t != EOW]
            assert rows.shape[0] == len(phones) + 1
            assert np.all(rows[:, eow] == pytest.approx(0.01))
            assert EOW not in alphabet.decode(utt.reference)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(peak=0.0), "peak"),
            (dict(peak=1.1), "peak"),
            (dict(peak=0.95, include_eow=False, eow_floor=0.2), "fit"),
            (dict(eow_floor=0.01), "only applies"),
        ],
    )
    def test_bad_parameters(self, lexicon, lm, kwargs, fragment):
        task = synth_corpus(5, lexicon, lm, 1, 0.0)
        with pytest.raises(SynthError, match=fragment):
            build_table_scorer(task, **kwargs)

    @pytest.mark.parametrize(
        "config",
        [
            DecodeConfig(fusion="nbest", lm_weight_nbest=0.1),
            DecodeConfig(fusion="beam", lm_weight=0.1),
            DecodeConfig(fusion="both", lm_weight=0.05, lm_weight_nbest=0.05),
        ],
        ids=["nbest", "beam", "both"],
    )
    def test_zero_noise_closed_loop_is_perfect(self, lexicon, lm, config):
        task = synth_corpus(21, lexicon, lm, 8, 0.0)
        scorer, utts = build_table_scorer(task)
        resources = DecodeResources(compile_lexicon(lexicon, "required"), lm_to_fst(lm))
        results = decode_batch(scorer, resources, utts, config)
        pairs = [(s.words, r.words) for s, r in zip(task.utterances, results)]
        assert corpus_wer(pairs).wer == 0.0


class TestTaskIO:
    def test_round_trip(self, lexicon, lm, tmp_path):
        task = synth_corpus(9, lexicon, lm, 5, 0.25)
        save_task(task, tmp_path / "task")
        back = load_task(tmp_path / "task")
        assert back.noise == task.noise
        assert back.seed == task.seed
        assert back.lexicon.entries == task.lexicon.entries
        assert len(back.utterances) == len(task.utterances)
        for a, b in zip(task.utterances, back.utterances):
            assert a.uid == b.uid
            assert a.words == b.words
            assert a.targets == b.targets
            assert np.array_equal(a.features, b.features)
        assert set(back.lm.probs) == set(task.lm.probs)
        for g, p in task.lm.probs.items():
            assert back.lm.probs[g] == pytest.approx(p, abs=1e-9)

    def test_same_seed_same_bytes(self, lexicon, lm, tmp_path):
        save_task(synth_corpus(13, lexicon, lm, 6, 0.2), tmp_path / "a")
        save_task(synth_corpus(13, lexicon, lm, 6, 0.2), tmp_path / "b")
        names = ["lexicon.txt", "phones.syms", "lm.arpa", "utterances.jsonl", "meta.json"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_alphabet_covers_targets(self, lexicon, lm):
        task = synth_corpus(2, lexicon, lm, 4, 0.3)
        alphabet = task_alphabet(task)
        for utt in task.utterances:
            for t in utt.targets:
                assert t in alphabet

    def test_meta_counts_utterances(self, lexicon, lm, tmp_path):
        task = synth_corpus(1, lexicon, lm, 7, 0.0)
        save_task(task, tmp_path / "t")
        meta = json.loads((tmp_path / "t" / "meta.json").read_text())
        assert meta == {"count": 7, "noise": 0.0, "seed": 1}
