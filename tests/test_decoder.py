import dataclasses
import itertools
import json
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import decoder as decoder_mod
from fusedec.decoder import (
    DecodeConfig,
    DecodeError,
    DecodeResources,
    FusionGraph,
    Hypothesis,
    NBestList,
    beam_search,
    decode,
    decode_batch,
    fused_beam_search,
    nbest_rescore,
)
from fusedec.fst import (
    Arc,
    SymbolTable,
    build_fst,
    compose,
    linear_fst,
    output_weights,
    shortest_paths,
    string_weight,
)
from fusedec.lexicon import EOW, compile_lexicon, parse_lexicon
from fusedec.ngram import lm_to_fst, score_sequence, train_ngram
from fusedec.scorer import EOS, SOS, TableScorer, ToyLasModel, Utterance

import oracles
from oracles import (
    fused_argmin_bruteforce,
    reference_expand,
    relation_table,
    scorer_argmin_bruteforce,
)


def make_alphabet(*symbols: str) -> SymbolTable:
    return SymbolTable([*symbols, SOS, EOS])


def rows_for(alphabet: SymbolTable, dists) -> np.ndarray:
    rows = np.zeros((len(dists), len(alphabet)))
    for i, d in enumerate(dists):
        for sym, p in d.items():
            rows[i, alphabet.id(sym)] = p
    return rows


def point_rows(alphabet: SymbolTable, symbols) -> np.ndarray:
    return rows_for(alphabet, [{s: 1.0} for s in symbols])


def make_utt(uid: str = "u0") -> Utterance:
    return Utterance(uid, np.zeros((1, 1)), (1,))


def random_rows(alphabet: SymbolTable, rng, steps: int, banned=()) -> np.ndarray:
    """Row-stochastic table with zero mass on <eps>, <sos>, and any
    (step, symbol) pair listed in banned."""
    rows = rng.random((steps, len(alphabet))) + 0.05
    rows[:, 0] = 0.0
    rows[:, alphabet.id(SOS)] = 0.0
    for step, sym in banned:
        rows[step, alphabet.id(sym)] = 0.0
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def homophone():
    """Lexicon {I,eye -> ay; am -> ae m}, grammar from 'I am' x3 + 'eye' x1."""
    lex = parse_lexicon("I\tay\neye\tay\nam\tae m\n")
    lexicon_fst = compile_lexicon(lex, eow_mode="required")
    lm = train_ngram([["I", "am"]] * 3 + [["eye"]], order=2, smoothing="absdisc")
    resources = DecodeResources(lexicon_fst, lm_to_fst(lm))
    alphabet = make_alphabet("ay", "ae", "m", EOW)
    return lm, resources, alphabet


@pytest.fixture(scope="module")
def full_cover():
    """Single-phone words in optional mode: every phone string parses, so
    the lattice never prunes anything the scorer can emit (as long as <eow>
    carries no mass at step zero)."""
    lex = parse_lexicon("wa\ta\nwb\tb\n")
    lexicon_fst = compile_lexicon(lex, eow_mode="optional")
    corpus = [["wa"], ["wa", "wb"], ["wb", "wa"], ["wa"], ["wb", "wb"]]
    lm = train_ngram(corpus, order=2, smoothing="absdisc")
    resources = DecodeResources(lexicon_fst, lm_to_fst(lm))
    alphabet = make_alphabet("a", "b", EOW)
    return resources, alphabet


class TestDecodeConfig:
    def test_defaults_are_valid(self):
        cfg = DecodeConfig()
        assert cfg.beam_width == 8
        assert cfg.fusion == "none"

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(fusion="late"), "fusion"),
            (dict(eow_mode="maybe"), "eow_mode"),
            (dict(beam_width=0), "beam_width"),
            (dict(max_steps=0), "max_steps"),
            (dict(nbest_size=0), "nbest_size"),
            (dict(fusion="beam", lm_weight=-0.1), "non-negative"),
            (dict(fusion="nbest"), "requires lm_weight_nbest"),
            (dict(fusion="both", lm_weight=0.1), "requires lm_weight_nbest"),
            (dict(lm_weight_nbest=0.1), "no effect"),
            (dict(fusion="beam", lm_weight_nbest=0.1), "no effect"),
            (dict(fusion="nbest", lm_weight=0.1, lm_weight_nbest=0.1), "no effect"),
            (dict(fusion="nbest", lm_weight_nbest=0.1, coverage_weight=0.2), "fused"),
            (dict(coverage_weight=0.2), "fused"),
            (dict(fusion="beam", lm_weight=math.inf), "finite"),
        ],
    )
    def test_rejects(self, kwargs, fragment):
        with pytest.raises(DecodeError, match=fragment):
            DecodeConfig(**kwargs)

    def test_fused_zero_lm_weight_is_allowed(self):
        DecodeConfig(fusion="both", lm_weight=0.0, lm_weight_nbest=0.1)


class TestPlainBeam:
    def test_point_mass_sequence(self):
        alphabet = make_alphabet("c", "a", "t")
        rows = point_rows(alphabet, ["c", "a", "t", EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        assert nb.complete
        top = nb.entries[0]
        assert top.tokens == alphabet.encode(["c", "a", "t"])
        assert top.model_score == pytest.approx(0.0, abs=1e-12)
        assert top.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_rejects_fused_config(self):
        alphabet = make_alphabet("a")
        scorer = TableScorer(alphabet, {"u0": point_rows(alphabet, [EOS])})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.1)
        with pytest.raises(DecodeError, match="does not fuse"):
            beam_search(scorer, make_utt(), cfg)

    def test_entries_sorted_and_capped(self):
        alphabet = make_alphabet("a", "b")
        rng = np.random.default_rng(7)
        rows = random_rows(alphabet, rng, 4)
        scorer = TableScorer(alphabet, {"u0": rows})
        nb = beam_search(scorer, make_utt(), DecodeConfig(beam_width=16, nbest_size=5))
        assert len(nb.entries) == 5
        keys = [(h.total_cost, h.tokens) for h in nb.entries]
        assert keys == sorted(keys)
        assert all(h.finished for h in nb.entries)
        assert len({h.tokens for h in nb.entries}) == 5

    def test_max_steps_caps_token_length(self):
        alphabet = make_alphabet("a")
        rows = rows_for(alphabet, [{"a": 0.9, EOS: 0.1}] * 6)
        scorer = TableScorer(alphabet, {"u0": rows})
        nb = beam_search(scorer, make_utt(), DecodeConfig(max_steps=2, nbest_size=8))
        assert max(len(h.tokens) for h in nb.entries) == 2

    def test_no_eos_mass_returns_incomplete(self):
        alphabet = make_alphabet("a", "b")
        rows = rows_for(alphabet, [{"a": 0.5, "b": 0.5}] * 3)
        scorer = TableScorer(alphabet, {"u0": rows})
        nb = beam_search(scorer, make_utt(), DecodeConfig(beam_width=2))
        assert not nb.complete
        assert nb.entries
        assert not nb.entries[0].finished
        # Three rows support finished strings of length two; survivors stop
        # there so every kept prefix could still have been graded.
        assert len(nb.entries[0].tokens) == 2

    def test_equal_probabilities_break_ties_lexicographically(self):
        alphabet = make_alphabet("a", "b")
        rows = rows_for(alphabet, [{"a": 0.4, "b": 0.4, EOS: 0.2}, {EOS: 1.0}])
        scorer = TableScorer(alphabet, {"u0": rows})
        nb = beam_search(scorer, make_utt(), DecodeConfig(nbest_size=3))
        a, b = alphabet.id("a"), alphabet.id("b")
        assert [h.tokens for h in nb.entries] == [(a,), (b,), ()]

    def test_width_one_is_greedy(self):
        alphabet = make_alphabet("a", "b")
        rng = np.random.default_rng(12)
        rows = random_rows(alphabet, rng, 3)
        scorer = TableScorer(alphabet, {"u0": rows})
        nb = beam_search(scorer, make_utt(), DecodeConfig(beam_width=1))
        # Greedy path by hand: argmax over non-eos until eos wins or rows end.
        eos = alphabet.id(EOS)
        tokens = []
        for step in range(3):
            best = int(np.argmax(rows[step]))
            if best == eos:
                break
            tokens.append(best)
        top = nb.entries[0]
        assert top.tokens[: len(tokens)] == tuple(tokens)

    @pytest.mark.parametrize("seed", range(10))
    def test_exhaustive_matches_bruteforce(self, seed):
        alphabet = make_alphabet("a", "b", "c")
        rng = np.random.default_rng(seed)
        rows = random_rows(alphabet, rng, 4)
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(beam_width=4096, max_steps=3, nbest_size=1)
        nb = beam_search(scorer, make_utt(), cfg)
        total, tokens = fused_argmin_bruteforce(rows, alphabet.id(EOS), 3)
        assert nb.entries[0].tokens == tokens
        assert nb.entries[0].total_cost == pytest.approx(total, abs=1e-9)


class TestFusionGraph:
    def test_start_and_advance(self, homophone):
        _, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        assert graph.best(graph.start) == pytest.approx(0.0)
        nxt = graph.advance(graph.start, alphabet.id("ay"))
        assert nxt is not None
        assert graph.advance(graph.start, alphabet.id("m")) is None
        assert graph.advance(graph.start, alphabet.id(EOW)) is None

    def test_empty_sentence_weight(self, homophone):
        lm, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        # Stopping at the start prices the empty sentence: gamma(<s>) * P(</s>)
        # with d=0.4 over 'I am' x3 + 'eye' is 0.2 * 4/11.
        assert graph.final_best(graph.start) == pytest.approx(-math.log(0.2 * 4 / 11), abs=1e-12)

    def test_mid_word_state_is_not_final(self, homophone):
        _, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        mid = graph.advance(graph.start, alphabet.id("ae"))
        assert graph.final_best(mid) is None

    def test_prefix_cost_never_decreases(self, homophone):
        _, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        states = graph.start
        for sym in ["ay", EOW, "ae", "m", EOW]:
            nxt = graph.advance(states, alphabet.id(sym))
            assert graph.best(nxt) >= graph.best(states) - 1e-12
            states = nxt

    def test_missing_phone_in_scorer_alphabet(self, homophone):
        _, resources, _ = homophone
        with pytest.raises(DecodeError, match="incompatible"):
            resources.graph_for(make_alphabet("ay", "ae", EOW))

    def test_disjoint_alphabet(self, homophone):
        _, resources, _ = homophone
        with pytest.raises(DecodeError, match="no symbol"):
            resources.graph_for(make_alphabet("x", "y"))

    def test_graph_cache_reuses_instance(self, homophone):
        _, resources, alphabet = homophone
        assert resources.graph_for(alphabet) is resources.graph_for(alphabet)


class TestDecodeResources:
    def test_requires_both_machines(self, homophone):
        _, resources, _ = homophone
        with pytest.raises(DecodeError, match="together"):
            DecodeResources(resources.lexicon_fst, None)

    def test_unfused_resources_reject_graph_requests(self):
        res = DecodeResources()
        with pytest.raises(DecodeError, match="requires both"):
            res.graph_for(make_alphabet("a"))

    def test_lexicon_word_missing_from_grammar(self):
        lex = parse_lexicon("I\tay\nam\tae m\n")
        lexicon_fst = compile_lexicon(lex, eow_mode="required")
        lm = train_ngram([["I"]], order=1, smoothing="mle")
        with pytest.raises(DecodeError, match="vocabulary"):
            DecodeResources(lexicon_fst, lm_to_fst(lm))


class TestFusedSearch:
    def test_requires_fused_config(self, homophone):
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        with pytest.raises(DecodeError, match="requires fusion"):
            fused_beam_search(scorer, resources.lg, make_utt(), DecodeConfig())

    def test_accepts_raw_lg_or_graph(self, homophone):
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.5)
        a = fused_beam_search(scorer, resources.lg, make_utt(), cfg)
        b = fused_beam_search(scorer, resources.graph_for(alphabet), make_utt(), cfg)
        assert a == b

    def test_dead_branch_is_pruned(self, homophone):
        _, resources, alphabet = homophone
        # Half the mass goes to 'm', which no word starts with.
        rows = rows_for(
            alphabet,
            [{"ay": 0.5, "m": 0.5}, {EOW: 1.0}, {EOS: 1.0}],
        )
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.1, beam_width=4)
        nb = fused_beam_search(scorer, resources.graph_for(alphabet), make_utt(), cfg)
        assert nb.complete
        ay = alphabet.id("ay")
        assert all(h.tokens[0] == ay for h in nb.entries)

    def test_eos_blocked_mid_word(self, homophone):
        _, resources, alphabet = homophone
        rows = rows_for(
            alphabet,
            [{"ae": 1.0}, {EOS: 0.6, "m": 0.4}, {EOW: 1.0}, {EOS: 1.0}],
        )
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.1)
        nb = fused_beam_search(scorer, resources.graph_for(alphabet), make_utt(), cfg)
        assert nb.complete
        assert nb.entries[0].tokens == alphabet.encode(["ae", "m", EOW])

    def test_finished_lm_cost_matches_string_weight(self, homophone):
        _, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        rows = point_rows(alphabet, ["ay", EOW, "ae", "m", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.7)
        nb = fused_beam_search(scorer, graph, make_utt(), cfg)
        top = nb.entries[0]
        assert top.lm_cost == pytest.approx(string_weight(graph.fst, top.tokens), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam, eta", [(0.4, 0.0), (0.15, 0.3)])
    def test_exhaustive_matches_bruteforce(self, homophone, seed, lam, eta):
        _, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        rng = np.random.default_rng(100 + seed)
        rows = random_rows(alphabet, rng, 5)
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(
            fusion="beam",
            lm_weight=lam,
            coverage_weight=eta,
            beam_width=8192,
            max_steps=4,
            nbest_size=1,
        )
        nb = fused_beam_search(scorer, graph, make_utt(), cfg)
        expect = fused_argmin_bruteforce(
            rows, alphabet.id(EOS), 4, lam=lam, eta=eta, graph=graph.fst
        )
        assert nb.complete
        assert nb.entries[0].tokens == expect[1]
        assert nb.entries[0].total_cost == pytest.approx(expect[0], abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_weight_fusion_equals_plain_on_covering_lexicon(self, full_cover, seed):
        resources, alphabet = full_cover
        rng = np.random.default_rng(200 + seed)
        # Boundary tokens may only follow a phone (odd steps here), or a
        # leading or doubled <eow> would die in the lattice but not in the
        # plain beam and the two searches would legitimately diverge.
        rows = random_rows(alphabet, rng, 5, banned=[(i, EOW) for i in range(0, 5, 2)])
        scorer = TableScorer(alphabet, {"u0": rows})
        fused_cfg = DecodeConfig(fusion="beam", lm_weight=0.0, beam_width=4, nbest_size=6)
        plain_cfg = DecodeConfig(beam_width=4, nbest_size=6)
        fused = fused_beam_search(scorer, resources.graph_for(alphabet), make_utt(), fused_cfg)
        plain = beam_search(scorer, make_utt(), plain_cfg)
        assert [h.tokens for h in fused.entries] == [h.tokens for h in plain.entries]
        for f, p in zip(fused.entries, plain.entries):
            assert f.total_cost == pytest.approx(p.total_cost, abs=1e-12)
            assert f.model_score == pytest.approx(p.model_score, abs=1e-12)


class TestAttentionScorerSearch:
    """The fused beam over a real attention model, coverage reward included."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exhaustive_matches_bruteforce(self, homophone, seed):
        _, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        model = ToyLasModel.init(
            alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3,
            n_heads=2, seed=seed,
        )
        for k in model.params:
            model.params[k] *= 8.0
        utt = Utterance("u0", np.random.default_rng(300 + seed).normal(size=(5, 3)), (1,))
        cfg = DecodeConfig(
            fusion="beam",
            lm_weight=0.3,
            coverage_weight=2.0,
            coverage_threshold=1.0,
            beam_width=4096,
            max_steps=4,
            nbest_size=1,
        )
        nb = fused_beam_search(model, graph, utt, cfg)
        expect = scorer_argmin_bruteforce(model, utt, 4, 0.3, 2.0, 1.0, graph.fst)
        # without the coverage reward these models stop at once; with it
        # every seed here ends on a longer, lattice-accepted string
        assert expect[1] != ()
        assert nb.complete
        assert nb.entries[0].tokens == expect[1]
        assert nb.entries[0].total_cost == pytest.approx(expect[0], abs=1e-9)

    def test_one_encode_and_one_model_step_per_expansion(self, homophone, monkeypatch):
        _, resources, alphabet = homophone
        model = ToyLasModel.init(alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3)
        counts = {"encode": 0, "decode_step": 0, "expand": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(model, "encode", counted("encode", model.encode))
        monkeypatch.setattr(model, "decode_step", counted("decode_step", model.decode_step))
        monkeypatch.setattr(
            decoder_mod, "step_distributions", counted("expand", decoder_mod.step_distributions)
        )
        utt = Utterance("u0", np.random.default_rng(7).normal(size=(4, 3)), (1,))
        cfg = DecodeConfig(fusion="beam", lm_weight=0.2, coverage_weight=0.5, beam_width=3, max_steps=6)
        decode(model, resources, utt, cfg)
        assert counts["encode"] == 1
        assert counts["expand"] > 6
        assert counts["decode_step"] == counts["expand"]

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_one_attention_per_distinct_state(self, homophone, monkeypatch, eta):
        _, resources, alphabet = homophone
        model = ToyLasModel.init(alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3)
        attends, states = [0], []  # states stepped or covered, held so no id is reused

        def attend(*args):
            attends[0] += 1
            return ToyLasModel._attend_cached(model, *args)

        def seen(fn):
            def wrapper(state, *args):
                states.append(state)
                return fn(state, *args)
            return wrapper

        monkeypatch.setattr(model, "_attend_cached", attend)
        monkeypatch.setattr(model, "step", seen(model.step))
        monkeypatch.setattr(model, "covered", seen(model.covered))
        utt = Utterance("u0", np.random.default_rng(7).normal(size=(4, 3)), (1,))
        cfg = DecodeConfig(fusion="beam", lm_weight=0.2, coverage_weight=eta, beam_width=3, max_steps=6)
        decode(model, resources, utt, cfg)
        # siblings step from their parent's state, which covered() also reads
        distinct = len({id(s) for s in states})
        assert distinct < len(states)
        assert attends[0] == distinct
        # the memo is invisible to equality and repr
        state = model.start(utt)
        twin, before = dataclasses.replace(state), repr(state)
        model.covered(state, 0.5)
        assert state == twin and repr(state) == before


class TestNBestRescore:
    def point_scorer(self, alphabet):
        rows = point_rows(alphabet, ["ay", EOW, "ae", "m", EOW, EOS])
        return TableScorer(alphabet, {"u0": rows})

    def test_homophone_tie_breaks_lexicographically_at_zero(self, homophone):
        _, resources, alphabet = homophone
        scorer = self.point_scorer(alphabet)
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        res = nbest_rescore(nb, resources.graph_for(alphabet), 0.0)
        assert [h.words for h in res.hypotheses] == [("I", "am"), ("eye", "am")]
        assert res.hypotheses[0].total_cost == pytest.approx(res.hypotheses[1].total_cost)
        assert res.unparsed == 0

    def test_homophone_lm_prefers_frequent_word(self, homophone):
        lm, resources, alphabet = homophone
        scorer = self.point_scorer(alphabet)
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        res = nbest_rescore(nb, resources.graph_for(alphabet), 0.1)
        first, second = res.hypotheses[:2]
        assert first.words == ("I", "am")
        assert second.words == ("eye", "am")
        assert first.total_cost < second.total_cost
        # Order-2 smoothed grammar is priced exactly, so the lattice cost of
        # each reading equals its sentence score.
        assert first.lm_cost == pytest.approx(-score_sequence(lm, ["I", "am"]), abs=1e-9)
        assert second.lm_cost == pytest.approx(-score_sequence(lm, ["eye", "am"]), abs=1e-9)

    def test_hand_computed_lattice_costs(self, homophone):
        _, resources, alphabet = homophone
        scorer = self.point_scorer(alphabet)
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        res = nbest_rescore(nb, resources.graph_for(alphabet), 1.0)
        by_words = {h.words: h.lm_cost for h in res.hypotheses}
        # d=0.4 absolute discounting over 'I am' x3 + 'eye':
        #   P(I|<s>) = 31/44, P(am|I) = 149/165, P(</s>|am) = 151/165
        #   P(eye|<s>) = 37/220, P(am|eye) = 0.4 * 3/11 backoff route
        cost_i_am = -(math.log(31 / 44) + math.log(149 / 165) + math.log(151 / 165))
        cost_eye_am = -(math.log(37 / 220) + math.log(0.4 * 3 / 11) + math.log(151 / 165))
        assert by_words[("I", "am")] == pytest.approx(cost_i_am, abs=1e-12)
        assert by_words[("eye", "am")] == pytest.approx(cost_eye_am, abs=1e-12)

    def test_weight_flip_changes_winner(self, homophone):
        _, resources, alphabet = homophone
        # Model prefers the one-word reading 'ay': eye. The grammar strongly
        # prefers 'I am'. Small weight keeps eye..., large weight flips.
        rows = rows_for(
            alphabet,
            [
                {"ay": 0.8, "ae": 0.2},
                {EOW: 1.0},
                {EOS: 0.9, "ae": 0.1},
                {"m": 1.0},
                {EOW: 1.0},
                {EOS: 1.0},
            ],
        )
        scorer = TableScorer(alphabet, {"u0": rows})
        nb = beam_search(scorer, make_utt(), DecodeConfig(beam_width=8, nbest_size=8))
        graph = resources.graph_for(alphabet)
        winners = []
        for lam in [0.0, 0.2, 0.5, 1.0, 2.0, 4.0]:
            res = nbest_rescore(nb, graph, lam)
            winners.append(res.hypotheses[0].words)
        # lambda 0 ties I/eye and breaks to I; a moderate weight prefers eye
        # (cheaper to end a sentence with); a heavy weight buys 'I am'.
        assert winners[0] == ("I",)
        assert winners[1] == ("eye",)
        assert winners[-1] == ("I", "am")
        flipped = winners.index(("I", "am"))
        assert all(w == ("I", "am") for w in winners[flipped:])

    def test_unparsed_hypotheses_are_dropped_and_counted(self, homophone):
        _, resources, alphabet = homophone
        graph = resources.graph_for(alphabet)
        good = Hypothesis(alphabet.encode(["ay", EOW]), -0.5, 0.0, 0, 0.5, True)
        bad = Hypothesis(alphabet.encode(["m", EOW]), -0.1, 0.0, 0, 0.1, True)
        res = nbest_rescore(NBestList((bad, good), True), graph, 0.1)
        assert res.unparsed == 1
        assert {h.words for h in res.hypotheses} == {("I",), ("eye",)}
        all_bad = nbest_rescore(NBestList((bad,), True), graph, 0.1)
        assert all_bad.hypotheses == ()
        assert all_bad.unparsed == 1

    def test_word_sequences_are_distinct(self, homophone):
        _, resources, alphabet = homophone
        scorer = self.point_scorer(alphabet)
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        res = nbest_rescore(nb, resources.graph_for(alphabet), 0.3, nbest_size=16)
        per_source = {}
        for h in res.hypotheses:
            per_source.setdefault(h.source_tokens, []).append(h.words)
        for words in per_source.values():
            assert len(words) == len(set(words))


class TestWordRecovery:
    """Words come from one pass over the lattice per token string."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), eow_mode=st.sampled_from(["required", "optional"]))
    def test_output_weights_match_relation_table_on_lexicon_bigram_graphs(self, seed, eow_mode):
        rng = np.random.default_rng(seed)
        graph = random_resources(rng, eow_mode).graph_for(make_alphabet("a", "b", "c", EOW))
        rel = relation_table(graph.fst, 40, 3)
        probes = {ils for ils, _ in rel}
        probes |= {tuple(int(t) for t in rng.integers(1, 5, size=n)) for n in range(4)}
        for ils in probes:
            want = {ols: w for (i, ols), w in rel.items() if i == ils}
            got = output_weights(graph.fst, ils)
            assert got.keys() == want.keys()
            for ols, w in want.items():
                assert got[ols] == pytest.approx(w, abs=1e-9)

    def test_backoff_paths_do_not_crowd_out_a_word_string(self):
        # x and y are homophones.  x is followed by many words, so backing
        # off after it costs little, and each word string of seven x-or-y has
        # up to 2^8 lattice paths: the 64 cheapest spell only three strings.
        fillers = [f"f{i}" for i in range(6)]
        lex = parse_lexicon("x\tp\ny\tp\n" + "".join(f"{f}\tq\n" for f in fillers))
        lm = train_ngram(
            [["x"] * 7] * 3 + [["x", f] for f in fillers] + [["y"]], order=2, smoothing="absdisc"
        )
        resources = DecodeResources(compile_lexicon(lex, "required"), lm_to_fst(lm))
        alphabet = make_alphabet("p", "q", EOW)
        graph = resources.graph_for(alphabet)
        spoken = ["p", EOW] * 7
        paths = shortest_paths(compose(linear_fst(spoken, alphabet), graph.fst), 64)
        crowded = {graph.fst.osyms.decode(p.olabels) for p in paths}
        assert len(crowded) == 3
        scorer = TableScorer(alphabet, {"u0": point_rows(alphabet, [*spoken, EOS])})
        cfg = DecodeConfig(
            fusion="both", lm_weight=0.5, lm_weight_nbest=0.5, nbest_size=4, max_steps=len(spoken)
        )
        got = decode(scorer, resources, make_utt(), cfg).hypotheses
        # an order-2 grammar prices every word string exactly
        spelled = sorted(-score_sequence(lm, list(w)) for w in itertools.product("xy", repeat=7))
        assert [h.lm_cost for h in got] == pytest.approx(spelled[:4], abs=1e-9)
        for h in got:
            assert h.lm_cost == pytest.approx(-score_sequence(lm, list(h.words)), abs=1e-9)
        assert got[3].words not in crowded


class TestDecode:
    def test_fusion_none_splits_at_space(self):
        alphabet = make_alphabet("t", "h", "e", "<space>", "c", "a")
        rows = point_rows(alphabet, ["t", "h", "e", "<space>", "c", "a", "t", EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        result = decode(scorer, None, make_utt(), DecodeConfig())
        assert result.words == ("the", "cat")
        assert result.complete
        assert result.unparsed == 0
        assert result.hypotheses[0].lm_cost == 0.0

    def test_fusion_none_drops_empty_segments(self):
        alphabet = make_alphabet("a", "<space>")
        rows = point_rows(alphabet, ["<space>", "a", "<space>", "<space>", EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        result = decode(scorer, None, make_utt(), DecodeConfig())
        assert result.words == ("a",)

    def test_fusion_none_requires_space_symbol(self, homophone):
        _, _, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        with pytest.raises(DecodeError, match="<space>"):
            decode(scorer, None, make_utt(), DecodeConfig())

    def test_fused_strategies_require_resources(self, homophone):
        _, _, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.1)
        with pytest.raises(DecodeError, match="resources"):
            decode(scorer, None, make_utt(), cfg)

    def test_beam_strategy_recovers_words(self, homophone):
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, "ae", "m", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.3)
        result = decode(scorer, resources, make_utt(), cfg)
        assert result.words == ("I", "am")
        assert result.strategy == "beam"
        assert result.complete

    def test_nbest_strategy_end_to_end(self, homophone):
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, "ae", "m", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="nbest", lm_weight_nbest=0.1)
        result = decode(scorer, resources, make_utt(), cfg)
        assert result.words == ("I", "am")
        assert [h.words for h in result.hypotheses[:2]] == [("I", "am"), ("eye", "am")]

    def test_beam_incomplete_fallback(self, homophone):
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay"])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=0.1)
        result = decode(scorer, resources, make_utt(), cfg)
        assert not result.complete
        # Nothing was emitted, and the empty token string parses as the
        # empty sentence.
        assert result.words == ()

    @pytest.mark.parametrize("seed", range(6))
    def test_both_with_zero_beam_weight_equals_nbest(self, full_cover, seed):
        resources, alphabet = full_cover
        rng = np.random.default_rng(300 + seed)
        rows = random_rows(alphabet, rng, 6, banned=[(i, EOW) for i in range(0, 6, 2)])
        scorer = TableScorer(alphabet, {"u0": rows})
        both_cfg = DecodeConfig(fusion="both", lm_weight=0.0, lm_weight_nbest=0.1)
        nbest_cfg = DecodeConfig(fusion="nbest", lm_weight_nbest=0.1)
        a = decode(scorer, resources, make_utt(), both_cfg)
        b = decode(scorer, resources, make_utt(), nbest_cfg)
        assert [h.words for h in a.hypotheses] == [h.words for h in b.hypotheses]
        for ha, hb in zip(a.hypotheses, b.hypotheses):
            assert ha.total_cost == pytest.approx(hb.total_cost, abs=1e-12)

    def test_both_adds_weights_for_rescoring(self, homophone):
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, "ae", "m", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        both = decode(
            scorer,
            resources,
            make_utt(),
            DecodeConfig(fusion="both", lm_weight=0.06, lm_weight_nbest=0.04),
        )
        nbest = decode(
            scorer, resources, make_utt(), DecodeConfig(fusion="nbest", lm_weight_nbest=0.1)
        )
        for hb, hn in zip(both.hypotheses, nbest.hypotheses):
            assert hb.words == hn.words
            assert hb.total_cost == pytest.approx(hn.total_cost, abs=1e-12)

    def test_result_dict_shape(self, homophone):
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="nbest", lm_weight_nbest=0.2)
        d = decode(scorer, resources, make_utt(), cfg).to_dict()
        assert d["uid"] == "u0"
        assert d["strategy"] == "nbest"
        assert d["config"] == {
            "lm_weight": 0.0,
            "lm_weight_nbest": 0.2,
            "coverage_weight": 0.0,
            "beam_width": 8,
            "eow_mode": "required",
        }
        # A lone 'ay' reads as eye under the grammar: training never ends a
        # sentence right after I, so that route pays two backoffs.
        assert d["words"] == ["eye"]
        assert d["nbest"][0]["words"] == ["eye"]
        json.dumps(d)

    def test_batch_matches_sequential_and_orders_results(self, homophone):
        _, resources, alphabet = homophone
        rng = np.random.default_rng(5)
        utts, tables = [], {}
        for i in range(12):
            uid = f"u{i}"
            utts.append(Utterance(uid, np.zeros((1, 1)), (1,)))
            tables[uid] = random_rows(alphabet, rng, 4)
        scorer = TableScorer(alphabet, tables)
        cfg = DecodeConfig(fusion="both", lm_weight=0.1, lm_weight_nbest=0.1)
        batch = decode_batch(scorer, resources, utts, cfg)
        assert [r.uid for r in batch] == [u.uid for u in utts]
        assert batch == [decode(scorer, resources, u, cfg) for u in utts]


class TestEowStrictness:
    def test_required_mode_has_one_boundary_per_word(self, homophone):
        _, resources, alphabet = homophone
        rng = np.random.default_rng(77)
        rows = random_rows(alphabet, rng, 6)
        scorer = TableScorer(alphabet, {"u0": rows})
        eow = alphabet.id(EOW)
        cfg = DecodeConfig(fusion="both", lm_weight=0.2, lm_weight_nbest=0.1, nbest_size=8)
        result = decode(scorer, resources, make_utt(), cfg)
        assert result.hypotheses
        for h in result.hypotheses:
            assert h.source_tokens.count(eow) == len(h.words)

    def test_optional_mode_accepts_missing_boundaries(self, full_cover):
        resources, alphabet = full_cover
        rows = point_rows(alphabet, ["a", "b", EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="nbest", lm_weight_nbest=0.1)
        result = decode(scorer, resources, make_utt(), cfg)
        assert result.words == ("wa", "wb")
        assert result.hypotheses[0].source_tokens.count(alphabet.id(EOW)) == 0


class TestBeamMonotonicity:
    @pytest.mark.parametrize("seed", range(12))
    def test_wider_plain_beam_never_worsens_top_cost(self, seed):
        alphabet = make_alphabet("a", "b", "c")
        rng = np.random.default_rng(400 + seed)
        rows = random_rows(alphabet, rng, 5)
        scorer = TableScorer(alphabet, {"u0": rows})
        totals = []
        for width in (1, 2, 4, 8, 32):
            nb = beam_search(scorer, make_utt(), DecodeConfig(beam_width=width, nbest_size=1))
            assert nb.complete
            totals.append(nb.entries[0].total_cost)
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_wider_fused_beam_never_worsens_top_cost(self, homophone, seed):
        _, resources, alphabet = homophone
        rng = np.random.default_rng(500 + seed)
        rows = random_rows(alphabet, rng, 5)
        scorer = TableScorer(alphabet, {"u0": rows})
        graph = resources.graph_for(alphabet)
        totals = []
        for width in (1, 2, 4, 8, 32):
            cfg = DecodeConfig(fusion="beam", lm_weight=0.3, beam_width=width, nbest_size=1)
            nb = fused_beam_search(scorer, graph, make_utt(), cfg)
            assert nb.complete
            totals.append(nb.entries[0].total_cost)
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))


@contextmanager
def counted_steps():
    """Count the scorer steps of the decoder and of the reference beam
    inside the block."""
    calls = [0]
    real = decoder_mod.step_distributions

    def wrapper(*args):
        calls[0] += 1
        return real(*args)

    with mock.patch.object(decoder_mod, "step_distributions", wrapper), \
            mock.patch.object(oracles, "step_distributions", wrapper):
        yield calls


def pruned_and_reference(scorer, resources, utt, cfg):
    """``decode`` as shipped and with the unpruned reference beam, each with
    its scorer-step count."""
    with counted_steps() as pruned_calls:
        pruned = decode(scorer, resources, utt, cfg).to_dict()
    with counted_steps() as ref_calls, mock.patch.object(decoder_mod, "_expand", reference_expand):
        ref = decode(scorer, resources, utt, cfg).to_dict()
    return pruned, ref, pruned_calls[0], ref_calls[0]


def peaked_rows(alphabet: SymbolTable, rng, steps: int, sharpness: float) -> np.ndarray:
    """Random rows raised to ``sharpness``: large values give near point
    masses, so some hypotheses finish early and pruning has work to do."""
    rows = random_rows(alphabet, rng, steps) ** sharpness
    return rows / rows.sum(axis=1, keepdims=True)


def random_resources(rng, eow_mode: str) -> DecodeResources:
    """A random lexicon over phones a, b, c and a bigram from random
    sentences over its words (each word also spoken alone once)."""
    phones = ["a", "b", "c"]
    words = [f"w{i}" for i in range(int(rng.integers(2, 5)))]
    text = "".join(
        f"{w}\t{' '.join(rng.choice(phones, size=int(rng.integers(1, 3))))}\n" for w in words
    )
    corpus = [[w] for w in words] + [
        [str(w) for w in rng.choice(words, size=int(rng.integers(1, 4)))] for _ in range(6)
    ]
    lm = train_ngram(corpus, order=2, smoothing="absdisc")
    return DecodeResources(compile_lexicon(parse_lexicon(text), eow_mode=eow_mode), lm_to_fst(lm))


class ScriptedScorer:
    """Protocol scorer with hand-set distributions and coverage per prefix;
    a prefix with no script stops with certainty and keeps its parent's
    coverage."""

    def __init__(self, alphabet, dists, covered):
        self.alphabet = alphabet
        self.dists = {k: rows_for(alphabet, [d])[0] for k, d in dists.items()}
        self.cov = covered

    def token_limit(self, utt):
        return 3

    def start(self, utt):
        return None

    def step(self, state, token):
        prefix = () if token is None else (*state, token)
        stop = rows_for(self.alphabet, [{EOS: 1.0}])[0]
        return self.dists.get(prefix, stop), prefix

    def covered(self, state, threshold):
        while state not in self.cov:
            state = state[:-1]
        return self.cov[state]


class TestThresholdPruning:
    """The beam stops stepping hypotheses that can no longer reach the
    n-best, and returns exactly what the unpruned reference beam returns."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        steps=st.integers(1, 8),
        beam_width=st.integers(1, 6),
        nbest_size=st.integers(1, 6),
        sharpness=st.sampled_from([1.0, 3.0, 8.0]),
    )
    def test_random_tables_match_reference(self, seed, steps, beam_width, nbest_size, sharpness):
        alphabet = make_alphabet("a", "b", "<space>")
        rows = peaked_rows(alphabet, np.random.default_rng(seed), steps, sharpness)
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(beam_width=beam_width, nbest_size=nbest_size)
        pruned, ref, calls, ref_calls = pruned_and_reference(scorer, None, make_utt(), cfg)
        assert pruned == ref
        assert calls <= ref_calls

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        fusion=st.sampled_from(["nbest", "beam", "both"]),
        eow_mode=st.sampled_from(["required", "optional"]),
        lam=st.floats(0.01, 2.0),
        eta=st.sampled_from([0.0, 0.3, 1.5]),
        beam_width=st.integers(1, 6),
        nbest_size=st.integers(1, 5),
        sharpness=st.sampled_from([1.0, 3.0, 8.0]),
    )
    def test_random_graphs_match_reference(
        self, seed, fusion, eow_mode, lam, eta, beam_width, nbest_size, sharpness
    ):
        rng = np.random.default_rng(seed)
        resources = random_resources(rng, eow_mode)
        alphabet = make_alphabet("a", "b", "c", EOW)
        assert resources.graph_for(alphabet).nonnegative
        rows = peaked_rows(alphabet, rng, int(rng.integers(2, 8)), sharpness)
        scorer = TableScorer(alphabet, {"u0": rows})
        searched = fusion != "nbest"
        cfg = DecodeConfig(
            fusion=fusion,
            lm_weight=lam if searched else 0.0,
            lm_weight_nbest=None if fusion == "beam" else lam,
            coverage_weight=eta if searched else 0.0,
            eow_mode=eow_mode,
            beam_width=beam_width,
            nbest_size=nbest_size,
        )
        pruned, ref, calls, ref_calls = pruned_and_reference(scorer, resources, make_utt(), cfg)
        assert pruned == ref
        assert calls <= ref_calls

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        fusion=st.sampled_from(["beam", "both"]),
        eta=st.floats(0.05, 2.0),
        threshold=st.floats(0.1, 1.2),
        frames=st.integers(1, 6),
        max_steps=st.integers(1, 6),
        beam_width=st.integers(1, 4),
        nbest_size=st.integers(1, 4),
    )
    def test_attention_models_with_coverage_match_reference(
        self, homophone, seed, fusion, eta, threshold, frames, max_steps, beam_width, nbest_size
    ):
        _, resources, alphabet = homophone
        rng = np.random.default_rng(seed)
        model = ToyLasModel.init(
            alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3,
            n_heads=int(rng.integers(1, 3)), seed=seed,
        )
        for k in model.params:
            model.params[k] *= float(rng.uniform(1.0, 8.0))
        utt = Utterance("u0", rng.normal(size=(frames, 3)), (1,))
        cfg = DecodeConfig(
            fusion=fusion,
            lm_weight=0.3,
            lm_weight_nbest=None if fusion == "beam" else 0.2,
            coverage_weight=eta,
            coverage_threshold=threshold,
            beam_width=beam_width,
            max_steps=max_steps,
            nbest_size=nbest_size,
        )
        pruned, ref, calls, ref_calls = pruned_and_reference(model, resources, utt, cfg)
        assert pruned == ref
        assert calls <= ref_calls

    def test_negative_weight_turns_pruning_off(self):
        # Stopping at once (<eos> costs 0.51) beats "a" (0.92) so far, but
        # the -10 arc makes "a a" the cheapest finished string.
        alphabet = make_alphabet("a")
        syms = SymbolTable(["a"])
        lg = build_fst(
            [Arc(0, 1, 1, 1, 0.0), Arc(1, 2, 1, 1, -10.0)], 0, {0: 0.0, 1: 0.0, 2: 0.0}, syms, syms
        )
        graph = FusionGraph(lg, alphabet)
        assert not graph.nonnegative
        rows = rows_for(alphabet, [{EOS: 0.6, "a": 0.4}, {EOS: 0.5, "a": 0.5}, {EOS: 1.0}])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="beam", lm_weight=1.0, nbest_size=1)
        ref = reference_expand(scorer, make_utt(), cfg, graph)
        a = alphabet.id("a")
        assert ref.entries[0].tokens == (a, a)
        assert fused_beam_search(scorer, graph, make_utt(), cfg) == ref
        # the same search with the pruning gate forced open stops after the
        # first depth and misses the answer
        graph.nonnegative = True
        assert fused_beam_search(scorer, graph, make_utt(), cfg).entries[0].tokens == ()

    @pytest.mark.parametrize("fusion", ["nbest", "beam", "both"])
    def test_word_recovery_refuses_a_negative_weight_graph(self, fusion):
        # the graph above, reached through decode: no word string can be
        # priced by a search that assumes costs never fall
        alphabet = make_alphabet("a")
        syms = SymbolTable(["a"])
        lg = build_fst(
            [Arc(0, 1, 1, 1, 0.0), Arc(1, 2, 1, 1, -10.0)], 0, {0: 0.0, 1: 0.0, 2: 0.0}, syms, syms
        )
        resources = DecodeResources(lg, build_fst([Arc(0, 0, 1, 1, 0.0)], 0, {0: 0.0}, syms, syms))
        graph = resources.graph_for(alphabet)
        assert not graph.nonnegative
        rows = rows_for(alphabet, [{EOS: 0.6, "a": 0.4}, {EOS: 0.5, "a": 0.5}, {EOS: 1.0}])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(
            fusion=fusion,
            lm_weight=0.0 if fusion == "nbest" else 1.0,
            lm_weight_nbest=None if fusion == "beam" else 1.0,
            nbest_size=1,
        )
        with pytest.raises(DecodeError, match="negative weight"):
            decode(scorer, resources, make_utt(), cfg)
        with pytest.raises(DecodeError, match="negative weight"):
            nbest_rescore(beam_search(scorer, make_utt(), DecodeConfig()), graph, 1.0)

    def test_coverage_reward_stops_only_when_every_entry_is_out(self):
        # After the first depth the bar is 0.69 (stopping at once).  "b"
        # costs 11.5 and can earn at most 10 back, so it cannot finish under
        # the bar, but its children (2.2 each, 10 frames covered) would push
        # "a a" (5.3, none covered yet) out of a two-wide beam; "a a" then
        # covers 10 frames and finishes at -4.7.  Dropping "b" alone would
        # keep "a a" and return it; the unpruned beam returns the empty string.
        alphabet = make_alphabet("a", "b")
        a, b = alphabet.id("a"), alphabet.id("b")
        scorer = ScriptedScorer(
            alphabet,
            {(): {EOS: 0.5, "a": 0.5 - 1e-5, "b": 1e-5}, (a,): {EOS: 0.99, "a": 0.01},
             (b,): {"a": 0.5, "b": 0.5}},
            {(): 0, (a,): 0, (b,): 10, (a, a): 10},
        )
        graph = FusionGraph(
            build_fst([Arc(0, 0, 1, 1, 0.0), Arc(0, 0, 2, 2, 0.0)], 0, {0: 0.0},
                      SymbolTable(["a", "b"]), SymbolTable(["a", "b"])),
            alphabet,
        )
        utt = Utterance("u0", np.zeros((10, 1)), (1,))
        cfg = DecodeConfig(fusion="beam", coverage_weight=1.0, beam_width=2, nbest_size=1)
        ref = reference_expand(scorer, utt, cfg, graph)
        assert ref.entries[0].tokens == ()
        assert fused_beam_search(scorer, graph, utt, cfg) == ref

    def test_early_eos_stops_after_one_step(self):
        alphabet = make_alphabet("a", "b", "<space>")
        rows = rows_for(
            alphabet,
            [{EOS: 0.9, "a": 0.05, "b": 0.05}] + [{"a": 0.45, "b": 0.45, EOS: 0.1}] * 40,
        )
        scorer = TableScorer(alphabet, {"u0": rows})
        limit = scorer.token_limit(make_utt())
        cfg = DecodeConfig(beam_width=4, nbest_size=1)
        pruned, ref, calls, ref_calls = pruned_and_reference(scorer, None, make_utt(), cfg)
        assert pruned == ref
        assert pruned["nbest"][0]["words"] == []
        assert calls == 1
        assert ref_calls >= limit + 1

    @pytest.mark.parametrize("kind", ["table", "model"])
    @pytest.mark.parametrize("threshold", [-1.0, 0.3])
    def test_coverage_stays_within_the_pruning_cap(self, homophone, kind, threshold):
        # _expand bounds the coverage reward by max(steps + 1, frames)
        _, resources, alphabet = homophone
        rng = np.random.default_rng(41)
        if kind == "table":
            scorer = TableScorer(alphabet, {"u0": random_rows(alphabet, rng, 7)})
            frames = 2
        else:
            scorer = ToyLasModel.init(alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3)
            frames = 9
        utt = Utterance("u0", rng.normal(size=(frames, 3)), (1,))
        cfg = DecodeConfig(fusion="beam", coverage_weight=0.5, coverage_threshold=threshold,
                           beam_width=3, max_steps=5)
        cap = max(min(cfg.max_steps, scorer.token_limit(utt)) + 1, frames)
        seen: list[int] = []
        real = decoder_mod.coverage_count

        def recorded(*args):
            seen.append(real(*args))
            return seen[-1]

        with mock.patch.object(oracles, "coverage_count", recorded):
            reference_expand(scorer, utt, cfg, resources.graph_for(alphabet))
        assert seen
        assert max(seen) <= cap
        if kind == "model" and threshold < 0:
            assert max(seen) == cap == frames
