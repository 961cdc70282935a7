import dataclasses
import itertools
import json
import math
import signal
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import decoder as decoder_mod
from fusedec import scorer as scorer_mod
from fusedec.decoder import (
    FUSION_MODES,
    SPACE,
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
    output_weights_batch,
    shortest_paths,
)
from fusedec.lexicon import EOW, compile_lexicon, parse_lexicon
from fusedec.ngram import lm_to_fst, score_sequence, train_ngram
from fusedec.scorer import EOS, SOS, TableScorer, ToyLasModel, Utterance

import oracles
from oracles import (
    fused_argmin_bruteforce,
    log_rows,
    reference_expand,
    reference_nbest_rescore,
    reference_output_weights,
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


def search(scorer, utt: Utterance, cfg: DecodeConfig, graph: FusionGraph | None) -> NBestList:
    """The public search that fits ``graph``: :func:`fused_beam_search`
    over it, or :func:`beam_search` when it is None."""
    if graph is None:
        return beam_search(scorer, utt, cfg)
    return fused_beam_search(scorer, graph, utt, cfg)


def homophone_setup():
    """Lexicon {I,eye -> ay; am -> ae m}, grammar from 'I am' x3 + 'eye' x1."""
    lex = parse_lexicon("I\tay\neye\tay\nam\tae m\n")
    lexicon_fst = compile_lexicon(lex, eow_mode="required")
    lm = train_ngram([["I", "am"]] * 3 + [["eye"]], order=2, smoothing="absdisc")
    resources = DecodeResources(lexicon_fst, lm_to_fst(lm))
    alphabet = make_alphabet("ay", "ae", "m", EOW)
    return lm, resources, alphabet


@pytest.fixture(scope="module")
def homophone():
    """The homophone set-up, shared: its graph may already hold stored results."""
    return homophone_setup()


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


@pytest.fixture(scope="module")
def homophone_pairs():
    """Single-phone words in optional mode, two per phone (wa, va -> a;
    wb, vb -> b), under a bigram: a string of n phones spells 2**n word
    strings."""
    lex = parse_lexicon("wa\ta\nva\ta\nwb\tb\nvb\tb\n")
    corpus = [["wa"], ["va", "wb"], ["wb", "wa"], ["vb"], ["wa", "vb", "va"], ["wb", "wb"]]
    lm = train_ngram(corpus, order=2, smoothing="absdisc")
    resources = DecodeResources(compile_lexicon(lex, eow_mode="optional"), lm_to_fst(lm))
    return resources, make_alphabet("a", "b", EOW)


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
        assert nb.complete
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

    @pytest.mark.parametrize("fused", [False, True])
    def test_cost_ties_across_parents_break_by_tokens_not_beam_order(self, fused):
        # The beam holds "b" ahead of "a", but "a" < "b" as tokens.  "a y"
        # and "b x" both cost 3 ln 2, and only one fits beside "b y": the
        # token order, not the parents' beam order, keeps "a y".
        alphabet = make_alphabet("a", "b", "x", "y")
        rows = rows_for(
            alphabet, [{"b": 0.5, "a": 0.25, EOS: 0.25}, {"y": 0.5, "x": 0.25, EOS: 0.25}, {EOS: 1.0}]
        )
        scorer = TableScorer(alphabet, {"u0": rows})
        if fused:  # one state reading every token for free: the lattice changes no cost
            syms = SymbolTable(["a", "b", "x", "y"])
            lg = build_fst([Arc(0, 0, i, i, 0.0) for i in range(1, 5)], 0, {0: 0.0}, syms, syms)
            graph = FusionGraph(lg, alphabet)
            cfg = DecodeConfig(beam_width=2, fusion="beam", lm_weight=1.0)
        else:
            graph, cfg = None, DecodeConfig(beam_width=2)
        got = search(scorer, make_utt(), cfg, graph)
        assert got == reference_expand(scorer, make_utt(), cfg, graph)
        tokens = {h.tokens for h in got.entries}
        assert alphabet.encode(["a", "y"]) in tokens and alphabet.encode(["b", "x"]) not in tokens

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
        assert graph.start.best == pytest.approx(0.0)
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
            assert nxt.best >= states.best - 1e-12
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


class TestStateSetCache:
    """``FusionGraph`` keeps each prefix's state set, and its label table, in
    a bounded trie.  Every set and table it hands out, fresh, cached, or
    reached after ``start`` was rebuilt at the bound, equals the uncached
    reference exactly, and a set is closed only once the beam uses it."""

    ALPHABET = make_alphabet("a", "b", "c", EOW)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        eow_mode=st.sampled_from(["required", "optional"]),
        order=st.integers(1, 4),
        bound=st.sampled_from([decoder_mod._MAX_STORED, 1, 3, 8]),
    )
    def test_walks_match_the_uncached_reference(self, seed, eow_mode, order, bound):
        rng = np.random.default_rng(seed)
        resources = random_resources(rng, eow_mode, order)
        with mock.patch.object(decoder_mod, "_MAX_STORED", bound):
            graph = FusionGraph(resources.lg, self.ALPHABET)
            start = oracles.reference_start(graph)
            walks = []
            for _ in range(12):
                # Mostly labels some state can read, so walks go deep; the
                # rest, <sos> and <eos> included, often leave the graph.
                walk, ref = [], start
                while ref is not None and len(walk) < 8:
                    live = sorted({a.ilabel for q, _ in ref for a in graph.fst.arcs_from(q)} - {0})
                    label = int(rng.choice(live)) if live and rng.random() < 0.8 else int(rng.integers(1, 7))
                    walk.append(label)
                    ref = oracles.reference_advance(graph, ref, label)
                walks.append(walk)
            for walk in walks * 2:
                states, ref = graph.start, start
                assert states.pairs == ref
                for label in walk:
                    assert states.best == oracles.reference_best(ref)
                    assert graph.final_best(states) == oracles.reference_final_best(graph, ref)
                    states = graph.advance(states, label)
                    ref = oracles.reference_advance(graph, ref, label)
                    assert graph._stored <= bound
                    if ref is None:
                        assert states is None
                        break
                    assert states.pairs == ref and len(states) == len(ref)
                else:
                    assert states.best == oracles.reference_best(ref)
                    assert graph.final_best(states) == oracles.reference_final_best(graph, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        eow_mode=st.sampled_from(["required", "optional"]),
        order=st.integers(1, 4),
        bound=st.sampled_from([decoder_mod._MAX_STORED, 1, 3, 8]),
    )
    def test_label_tables_match_the_uncached_reference(self, seed, eow_mode, order, bound):
        rng = np.random.default_rng(seed)
        resources = random_resources(rng, eow_mode, order)
        labels = range(1, len(self.ALPHABET))
        with mock.patch.object(decoder_mod, "_MAX_STORED", bound):
            graph = FusionGraph(resources.lg, self.ALPHABET)
            for _ in range(8):
                states, ref = graph.start, oracles.reference_start(graph)
                for _ in range(10):
                    assert states.best == oracles.reference_best(ref)
                    table = graph.ahead(states)
                    assert graph._stored <= bound
                    assert states.best == min(w for _, w in states.pairs)
                    for label in labels:
                        nxt = oracles.reference_advance(graph, ref, label)
                        if nxt is None:
                            assert label not in table
                        else:
                            assert table[label] == oracles.reference_best(nxt)
                    if not table:
                        break
                    label = int(rng.choice(sorted(table)))
                    states = graph.advance(states, label)
                    ref = oracles.reference_advance(graph, ref, label)
                    assert graph._stored <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        eow_mode=st.sampled_from(["required", "optional"]),
        order=st.integers(1, 4),
        bound=st.sampled_from([decoder_mod._MAX_STORED, 1, 3, 8]),
    )
    def test_label_tables_equal_the_arc_scan_bit_for_bit(self, seed, eow_mode, order, bound):
        rng = np.random.default_rng(seed)
        resources = random_resources(rng, eow_mode, order)
        rebuilds = 0
        with mock.patch.object(decoder_mod, "_MAX_STORED", bound):
            graph = FusionGraph(resources.lg, self.ALPHABET)
            cheapest = graph._cheapest
            for _ in range(8):
                states, ref = graph.start, oracles.reference_start(graph)
                for _ in range(10):
                    start, before = graph.start, list(cheapest)
                    table = graph.ahead(states)
                    scan = oracles.reference_ahead(graph, ref)
                    # same labels in the same order, each value the same float
                    assert [(k, v.hex()) for k, v in table.items()] == [(k, v.hex()) for k, v in scan.items()]
                    if not table:
                        break
                    label = int(rng.choice(sorted(table)))
                    states = graph.advance(states, label)
                    ref = oracles.reference_advance(graph, ref, label)
                    assert graph._stored <= bound
                    rebuilds += graph.start is not start
                    # a rebuild forgets per-prefix results, never a state's label costs
                    assert graph._cheapest is cheapest
                    assert all(b is None or b is a for b, a in zip(before, cheapest))
        if bound == 1:
            assert rebuilds > 0

    def test_label_costs_keep_the_cheapest_arc_and_drop_infinite_ones(self):
        alphabet = make_alphabet("a", "b", "c")
        a, b, c = (alphabet.id(x) for x in "abc")
        lg = build_fst(
            [
                (0, 1, a, 1, 2.0),
                (0, 2, a, 1, 0.5),  # the same label again, cheaper
                (0, 1, b, 1, math.inf),  # the only arc reading b here
                (0, 3, 0, 0, 0.25),
                (3, 1, c, 1, 1.0),
                (3, 2, a, 0, 0.125),
                (2, 1, b, 1, math.inf),
            ],
            0,
            {1: 0.0, 2: 0.0},
            SymbolTable(["a", "b", "c"]),
            SymbolTable(["w"]),
        )
        graph = FusionGraph(lg, alphabet)
        table = graph.ahead(graph.start)
        assert table == {a: 0.375, c: 1.25}
        assert graph._cheapest[0] == {a: 0.5} and graph._cheapest[3] == {a: 0.125, c: 1.0}
        after_a = graph.advance(graph.start, a)
        for states in (graph.start, after_a):
            table = graph.ahead(states)
            for label in range(1, len(alphabet)):
                nxt = graph.advance(states, label)
                assert (label in table) == (nxt is not None)
                if nxt is not None:
                    assert table[label] == nxt.best
        assert graph.ahead(after_a) == {} and graph._cheapest[2] == {}

    def test_only_survivors_are_built_and_each_is_closed_once_when_built(self):
        _, resources, alphabet = homophone_setup()
        graph = resources.graph_for(alphabet)
        rng = np.random.default_rng(5)
        # no <eos> at the first steps, so the beam goes deep
        banned = [(step, EOS) for step in range(3)]
        rows = {f"u{i}": random_rows(alphabet, rng, 7, banned) for i in range(4)}
        scorer = TableScorer(alphabet, rows)
        cfg = DecodeConfig(fusion="beam", lm_weight=0.5, beam_width=2, max_steps=6, nbest_size=1)
        advance, closure = FusionGraph.advance, decoder_mod._eps_closure
        depth = {id(graph.start): 0}
        made: dict[int, object] = {}  # every set advance returned, kept alive so ids stay unique
        per_depth: dict[int, int] = {}
        closures = []

        def counted_advance(self, states, label):
            before = len(closures)
            nxt = advance(self, states, label)
            d = depth[id(states)]
            per_depth[d] = per_depth.get(d, 0) + 1
            built = nxt is not None and id(nxt) not in made
            assert len(closures) == before + built
            if nxt is not None:
                depth[id(nxt)] = d + 1
                made[id(nxt)] = nxt
            return nxt

        def counted_closure(f, seeds):
            closures.append(seeds)
            return closure(f, seeds)

        with (
            mock.patch.object(FusionGraph, "advance", counted_advance),
            mock.patch.object(decoder_mod, "_eps_closure", counted_closure),
        ):
            for uid in rows:
                per_depth.clear()
                decode(scorer, resources, make_utt(uid), cfg)
                assert per_depth and max(per_depth.values()) <= cfg.beam_width
        assert len(closures) == len(made)

    def test_a_repeated_advance_returns_the_stored_set(self, homophone):
        _, resources, alphabet = homophone
        graph = FusionGraph(resources.lg, alphabet)
        nxt = graph.advance(graph.start, alphabet.id("ay"))
        assert graph.advance(graph.start, alphabet.id("ay")) is nxt
        assert graph.advance(graph.start, alphabet.id("m")) is None
        assert graph._stored == 2
        table = graph.ahead(graph.start)
        assert graph.ahead(graph.start) is table
        assert table[alphabet.id("ay")] == nxt.best and alphabet.id("m") not in table
        assert graph._stored == 3

    def test_the_bound_rebuilds_start_and_keeps_old_sets_usable(self, homophone):
        _, resources, alphabet = homophone
        ay, eow = alphabet.id("ay"), alphabet.id(EOW)
        with mock.patch.object(decoder_mod, "_MAX_STORED", 1):
            graph = FusionGraph(resources.lg, alphabet)
            old = graph.start
            mid = graph.advance(old, ay)
            end = graph.advance(mid, eow)
            assert graph.start is not old and graph.start == old
            assert graph.start.next == {} and graph._stored == 1
            assert graph.advance(graph.start, ay) == mid
            assert graph.advance(mid, eow) is end

    def test_state_sets_compare_by_pairs(self, homophone):
        _, resources, alphabet = homophone
        one = FusionGraph(resources.lg, alphabet)
        two = FusionGraph(resources.lg, alphabet)
        a = one.advance(one.start, alphabet.id("ay"))
        b = two.advance(two.start, alphabet.id("ay"))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != one.start and len(a) == len(a.pairs)


class TestDecodeResources:
    def test_requires_both_machines(self):
        lexicon_fst = compile_lexicon(parse_lexicon("I\tay\n"), eow_mode="required")
        with pytest.raises(DecodeError, match="together"):
            DecodeResources(lexicon_fst, None)

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
            fused_beam_search(scorer, resources.graph_for(alphabet), make_utt(), DecodeConfig())

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
        assert top.lm_cost == pytest.approx(min(output_weights(graph.fst, top.tokens).values()), abs=1e-12)

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


def count_results_built(monkeypatch) -> list[str]:
    """Patch counting subclasses over the decoder's :class:`Hypothesis` and
    :class:`NBestList`; the list returned gets the class name of each one
    built, whether by a call or by ``_make``."""
    built: list[str] = []

    def counted(cls):
        class Counted(cls):
            def __new__(subcls, *args, **kwargs):
                built.append(cls.__name__)
                return super().__new__(subcls, *args, **kwargs)

            @classmethod
            def _make(subcls, iterable):
                built.append(cls.__name__)
                return super()._make(iterable)

        return Counted

    monkeypatch.setattr(decoder_mod, "Hypothesis", counted(Hypothesis))
    monkeypatch.setattr(decoder_mod, "NBestList", counted(NBestList))
    return built


class TestBeamEntries:
    """The beam keeps its entries as plain tuples; a :class:`Hypothesis` is
    built only for what the search returns."""

    def test_the_search_builds_only_the_returned_hypotheses(self, homophone, monkeypatch):
        _, resources, alphabet = homophone
        built = count_results_built(monkeypatch)
        rows = random_rows(alphabet, np.random.default_rng(31), 7)
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="both", lm_weight=0.2, lm_weight_nbest=0.1, beam_width=8, nbest_size=3)
        with counted_steps() as calls:
            result = fused_beam_search(scorer, resources.graph_for(alphabet), make_utt(), cfg)
        assert result.complete and result.entries
        assert calls[0] > 2  # the beam went deep enough to hold many more entries
        assert 0 < built.count("Hypothesis") <= cfg.nbest_size

    @pytest.mark.parametrize("fusion", ["none", "beam"])
    @pytest.mark.parametrize("eos_mass", [True, False])
    def test_words_come_straight_from_the_entries(self, homophone, monkeypatch, fusion, eos_mass):
        # fusion none and beam read words from the beam's entries: no
        # Hypothesis and no NBestList, finished or not
        built = count_results_built(monkeypatch)
        banned = [] if eos_mass else [(i, EOS) for i in range(6)]
        if fusion == "none":
            alphabet, resources, cfg = make_alphabet("a", "b", "<space>"), None, DecodeConfig(nbest_size=4)
        else:
            _, resources, alphabet = homophone
            cfg = DecodeConfig(fusion="beam", lm_weight=0.2, nbest_size=4)
        rows = random_rows(alphabet, np.random.default_rng(33), 6, banned=banned)
        result = decode(TableScorer(alphabet, {"u0": rows}), resources, make_utt(), cfg)
        assert result.complete == eos_mass
        assert result.hypotheses
        assert built == []

    @pytest.mark.parametrize("fusion", FUSION_MODES)
    @pytest.mark.parametrize("finished", [True, False])
    def test_no_mode_builds_a_hypothesis_or_an_nbest_list(self, homophone, monkeypatch, fusion, finished):
        # nbest and both rescore the beam's entries themselves, finished
        # ones or, when nothing finishes, the best live prefixes: the row
        # after the spoken ones has no <eos> mass, and the scorer allows no
        # longer string
        built = count_results_built(monkeypatch)
        if fusion == "none":
            alphabet, resources, spoken = make_alphabet("a", "b", SPACE), None, ["a", SPACE, "b"]
        else:
            _, resources, alphabet = homophone
            spoken = ["ay", EOW, "ae", "m", EOW]
        fused = {"lm_weight": 0.2} if fusion in ("beam", "both") else {}
        rescored = {"lm_weight_nbest": 0.1} if fusion in ("nbest", "both") else {}
        cfg = DecodeConfig(fusion=fusion, **fused, **rescored)
        rows = point_rows(alphabet, [*spoken, EOS if finished else spoken[0]])
        result = decode(TableScorer(alphabet, {"u0": rows}), resources, make_utt(), cfg)
        assert result.complete == finished
        assert result.hypotheses
        assert built == []

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        eow_mode=st.sampled_from(["required", "optional"]),
        fused=st.booleans(),
        eos_mass=st.booleans(),
        beam_width=st.integers(1, 6),
        nbest_size=st.integers(1, 6),
    )
    def test_the_searches_return_the_beam_entries_named(
        self, seed, eow_mode, fused, eos_mass, beam_width, nbest_size
    ):
        # With no <eos> mass nothing finishes, and the best live prefixes
        # come back with the same five fields; a fused prefix's lattice cost
        # is the best cost of the set its tokens reach.
        assert Hypothesis._fields == ("total_cost", "tokens", "model_score", "lm_cost", "coverage")
        rng = np.random.default_rng(seed)
        alphabet = make_alphabet("a", "b", "c", EOW)
        steps = int(rng.integers(2, 6))
        banned = [] if eos_mass else [(i, EOS) for i in range(steps)]
        scorer = TableScorer(alphabet, {"u0": random_rows(alphabet, rng, steps, banned=banned)})
        if fused:
            graph = random_resources(rng, eow_mode).graph_for(alphabet)
            cfg = DecodeConfig(fusion="beam", lm_weight=0.5, beam_width=beam_width, nbest_size=nbest_size)
        else:
            graph, cfg = None, DecodeConfig(beam_width=beam_width, nbest_size=nbest_size)
        entries, complete = decoder_mod._expand(scorer, make_utt(), cfg, graph)
        nb = search(scorer, make_utt(), cfg, graph)
        assert nb.complete == complete
        assert eos_mass or not complete
        assert all(type(h) is Hypothesis for h in nb.entries)
        assert [tuple(h) for h in nb.entries] == entries
        if graph is not None and not complete:
            for h in nb.entries:
                states = graph.start
                for tid in h.tokens:
                    states = graph.advance(states, tid)
                assert h.lm_cost == states.best


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

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_one_encode_and_one_scorer_step_per_depth(self, homophone, monkeypatch, eta):
        _, resources, alphabet = homophone
        model = ToyLasModel.init(alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3)
        counts = {"encode": 0, "decode_step": 0, "coverage": 0}
        depths: list[set[int]] = []  # the step counts of each call's states

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        def stepped(scorer, states, tokens):
            depths.append({state.steps for state in states})
            return real_step(scorer, states, tokens)

        real_step = decoder_mod.step_distributions
        monkeypatch.setattr(model, "encode", counted("encode", model.encode))
        monkeypatch.setattr(model, "decode_step", counted("decode_step", model.decode_step))
        monkeypatch.setattr(decoder_mod, "step_distributions", stepped)
        monkeypatch.setattr(
            decoder_mod, "coverage_count", counted("coverage", decoder_mod.coverage_count)
        )
        utt = Utterance("u0", np.random.default_rng(7).normal(size=(4, 3)), (1,))
        cfg = DecodeConfig(fusion="beam", lm_weight=0.2, coverage_weight=eta, beam_width=3, max_steps=6)
        decode(model, resources, utt, cfg)
        assert counts["encode"] == 1
        assert counts["decode_step"] == 0
        # one call per depth, over every live hypothesis at that depth
        assert len(depths) > 2
        assert depths == [{d} for d in range(len(depths))]
        assert counts["coverage"] == (len(depths) if eta else 0)

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_one_attention_per_step_and_start(self, homophone, monkeypatch, eta):
        _, resources, alphabet = homophone
        model = ToyLasModel.init(alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3)
        starts, stepped, attended = [], [], []  # the rows of each call
        real_start, real_step, real_attend = model.start, model.step, model._attend

        def attend(keys, s, *args):
            attended.append(s.shape[0])
            return real_attend(keys, s, *args)

        def start(utt):
            starts.append(1)
            return real_start(utt)

        def step(states, tokens):
            stepped.append(len(states))
            return real_step(states, tokens)

        monkeypatch.setattr(model, "_attend", attend)
        monkeypatch.setattr(model, "start", start)
        monkeypatch.setattr(model, "step", step)
        utt = Utterance("u0", np.random.default_rng(7).normal(size=(4, 3)), (1,))
        cfg = DecodeConfig(fusion="beam", lm_weight=0.2, coverage_weight=eta, beam_width=3, max_steps=6)
        decode(model, resources, utt, cfg)
        # the attention of the step leaving a state is computed when the
        # state is made, over every state one call makes; covered() reads it
        assert starts == [1] and len(stepped) > 2
        assert attended == [1, *stepped]


class TestNBestRescore:
    def point_scorer(self, alphabet):
        rows = point_rows(alphabet, ["ay", EOW, "ae", "m", EOW, EOS])
        return TableScorer(alphabet, {"u0": rows})

    def test_homophone_tie_breaks_lexicographically_at_zero(self, homophone):
        _, resources, alphabet = homophone
        scorer = self.point_scorer(alphabet)
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        hyps, unparsed = nbest_rescore(nb.entries, resources.graph_for(alphabet), 0.0)
        assert [h.words for h in hyps] == [("I", "am"), ("eye", "am")]
        assert hyps[0].total_cost == pytest.approx(hyps[1].total_cost)
        assert unparsed == 0

    def test_homophone_lm_prefers_frequent_word(self, homophone):
        lm, resources, alphabet = homophone
        scorer = self.point_scorer(alphabet)
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        hyps, _ = nbest_rescore(nb.entries, resources.graph_for(alphabet), 0.1)
        first, second = hyps[:2]
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
        hyps, _ = nbest_rescore(nb.entries, resources.graph_for(alphabet), 1.0)
        by_words = {h.words: h.lm_cost for h in hyps}
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
            hyps, _ = nbest_rescore(nb.entries, graph, lam)
            winners.append(hyps[0].words)
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
        good = Hypothesis(0.5, alphabet.encode(["ay", EOW]), -0.5, 0.0, 0)
        bad = Hypothesis(0.1, alphabet.encode(["m", EOW]), -0.1, 0.0, 0)
        hyps, unparsed = nbest_rescore([bad, good], graph, 0.1)
        assert unparsed == 1
        assert {h.words for h in hyps} == {("I",), ("eye",)}
        all_bad, all_unparsed = nbest_rescore([bad], graph, 0.1)
        assert all_bad == ()
        assert all_unparsed == 1

    def test_word_sequences_are_distinct(self, homophone):
        _, resources, alphabet = homophone
        scorer = self.point_scorer(alphabet)
        nb = beam_search(scorer, make_utt(), DecodeConfig())
        hyps, _ = nbest_rescore(nb.entries, resources.graph_for(alphabet), 0.3, nbest_size=16)
        per_source = {}
        for h in hyps:
            per_source.setdefault(h.source_tokens, []).append(h.words)
        for words in per_source.values():
            assert len(words) == len(set(words))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        steps=st.integers(2, 6),
        beam_width=st.integers(2, 8),
        lam=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
        eta=st.sampled_from([0.0, 0.5]),
        keep=st.integers(1, 40),
    )
    def test_ranking_matches_the_object_pool_oracle(
        self, homophone_pairs, seed, steps, beam_width, lam, eta, keep
    ):
        # Two homophone pairs in optional mode: nearly every token string
        # spells words, most of them several.  Probabilities come from a
        # few repeated values, so token strings tie on model score, and at
        # weight 0 every reading of one string ties: the ranking then rests
        # on words and tokens.  The kept count is below the pool's size, so
        # the cut falls inside the ranking.
        resources, alphabet = homophone_pairs
        graph = resources.graph_for(alphabet)
        rng = np.random.default_rng(seed)
        mass = rng.choice([0.0, 1.0, 1.0, 2.0], size=(steps, len(alphabet)))
        mass[:, 0] = mass[:, alphabet.id(SOS)] = mass[0, alphabet.id(EOW)] = 0.0
        mass[:, alphabet.id("a")] += 1.0  # no empty row
        mass[-1] = 0.0
        mass[-1, alphabet.id(EOS)] = 1.0
        scorer = TableScorer(alphabet, {"u0": mass / mass.sum(axis=1, keepdims=True)})
        nb = beam_search(scorer, make_utt(), DecodeConfig(beam_width=beam_width, nbest_size=beam_width))
        pool, _ = reference_nbest_rescore(nb, graph, lam, nbest_size=10**6, coverage_weight=eta)
        keep = min(keep, len(pool) - 1)
        assert keep >= 1
        got = nbest_rescore(nb.entries, graph, lam, nbest_size=keep, coverage_weight=eta)
        assert got == reference_nbest_rescore(nb, graph, lam, nbest_size=keep, coverage_weight=eta)


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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        eow_mode=st.sampled_from(["required", "optional"]),
        order=st.integers(1, 4),
    )
    def test_batch_matches_the_reference_on_lexicon_ngram_graphs(self, seed, eow_mode, order):
        rng = np.random.default_rng(seed)
        graph = random_resources(rng, eow_mode, order).graph_for(make_alphabet("a", "b", "c", EOW))
        spoken = sorted({ils for ils, _ in relation_table(graph.fst, 12, 5)})
        strings = [*spoken, *(tuple(int(t) for t in rng.integers(0, 5, size=n)) for n in range(6))]
        strings += [s[:-1] for s in spoken] + strings[::3]
        want = [reference_output_weights(graph.fst, s) for s in strings]
        assert output_weights_batch(graph.fst, strings) == want
        assert any(want) and not all(want)

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


@contextmanager
def counted_word_passes():
    """Record every token string the decoder hands word recovery
    (``output_weights_batch``) inside the block."""
    calls: list[tuple[int, ...]] = []

    def wrapper(f, strings):
        calls.extend(tuple(tokens) for tokens in strings)
        return output_weights_batch(f, strings)

    with mock.patch.object(decoder_mod, "output_weights_batch", wrapper):
        yield calls


def sorted_word_parses(graph: FusionGraph, tokens) -> tuple:
    return tuple(
        sorted((w, ols, graph.fst.osyms.decode(ols)) for ols, w in output_weights(graph.fst, tokens).items())
    )


class TestWordMemo:
    """``FusionGraph.words`` recovers each token string once per graph.  What
    it returns, cold, warm, or recomputed after the bound dropped it, is
    that string's ``output_weights`` sorted by (cost, output labels)."""

    ALPHABET = make_alphabet("a", "b", "c", EOW)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        eow_mode=st.sampled_from(["required", "optional"]),
        order=st.integers(1, 4),
        bound=st.sampled_from([decoder_mod._MAX_STORED, 1, 3, 8]),
    )
    def test_word_maps_match_output_weights(self, seed, eow_mode, order, bound):
        rng = np.random.default_rng(seed)
        resources = random_resources(rng, eow_mode, order)
        with mock.patch.object(decoder_mod, "_MAX_STORED", bound), counted_word_passes() as calls:
            graph = FusionGraph(resources.lg, self.ALPHABET)
            strings = []
            for _ in range(10):
                # Walk the trie as the beam does, asking for words at every
                # prefix, so transitions and word maps share the bound.
                tokens, states = (), graph.start
                while True:
                    assert graph.words([tokens]) == [sorted_word_parses(graph, tokens)]
                    assert graph._stored <= bound and len(graph._words) <= bound
                    strings.append(tokens)
                    if states is None or len(tokens) == 8:
                        break
                    live = sorted({a.ilabel for q, _ in states.pairs for a in graph.fst.arcs_from(q)} - {0})
                    label = int(rng.choice(live)) if live and rng.random() < 0.8 else int(rng.integers(1, 7))
                    tokens += (label,)
                    states = graph.advance(states, label)
            for tokens in strings:  # warm, or recomputed where the bound dropped it
                assert graph.words([tokens]) == [sorted_word_parses(graph, tokens)]
                assert graph._stored <= bound and len(graph._words) <= bound
        if bound == decoder_mod._MAX_STORED:
            assert sorted(calls) == sorted(set(strings))

    @pytest.mark.parametrize("bound", [1, 3])
    def test_one_call_past_the_bound_returns_every_string_its_own_parses(self, bound):
        # eight strings, five of them parsed, recovered in one call: storing
        # them drops the word maps several times over
        graph = FusionGraph(homophone_setup()[1].lg, make_alphabet("ay", "ae", "m", EOW))
        ay, ae, m, eow = (graph.fst.isyms.id(s) for s in ("ay", "ae", "m", EOW))
        strings = [
            (ay, eow), (ay, eow, ae, m, eow), (ae, m, eow), (ay, eow, ay, eow), (ae, m, eow, ay, eow),
            (ay,), (m, eow), (ay, eow, ae),
        ]
        seen = []
        store = graph._store

        def counted():
            store()
            seen.append(graph._stored)

        with mock.patch.object(decoder_mod, "_MAX_STORED", bound), mock.patch.object(graph, "_store", counted):
            got = graph.words(strings)
            assert graph.words(strings[::-1]) == got[::-1]
        assert got == [sorted_word_parses(graph, tokens) for tokens in strings]
        assert [bool(parses) for parses in got] == [True] * 5 + [False] * 3
        assert len(seen) > bound and max(seen) <= bound and len(graph._words) <= bound

    def test_nbest_decodes_keep_word_maps_within_the_bound(self):
        # An nbest decode never advances, so only word maps reach the bound.
        _, resources, alphabet = homophone_setup()
        rng = np.random.default_rng(3)
        rows = {f"u{i}": random_rows(alphabet, rng, 7) for i in range(4)}
        scorer = TableScorer(alphabet, rows)
        cfg = DecodeConfig(fusion="nbest", lm_weight_nbest=0.5, max_steps=6)
        with mock.patch.object(decoder_mod, "_MAX_STORED", 3), counted_word_passes() as calls:
            for _ in range(2):
                for uid in rows:
                    decode(scorer, resources, make_utt(uid), cfg)
                    graph = resources.graph_for(alphabet)
                    assert graph._stored <= 3 and len(graph._words) <= 3
                    assert graph.start.next == {}
        assert len(set(calls)) > 3

    def test_a_beam_sweep_recovers_each_token_string_once(self):
        _, resources, alphabet = homophone_setup()
        rng = np.random.default_rng(11)
        rows = {f"u{i}": random_rows(alphabet, rng, 8) for i in range(5)}
        scorer = TableScorer(alphabet, rows)
        utts = [make_utt(uid) for uid in rows]
        returned: list[tuple[int, ...]] = []
        core = decoder_mod._expand

        def recorded(*args):
            entries, complete = core(*args)
            assert complete
            returned.extend(e[1] for e in entries)
            return entries, complete

        with mock.patch.object(decoder_mod, "_expand", recorded), counted_word_passes() as calls:
            for lam in (0.0, 0.5, 1.0, 2.0):
                decode_batch(scorer, resources, utts, DecodeConfig(fusion="beam", lm_weight=lam, max_steps=7))
        assert len(returned) > len(set(returned))  # the weights share token strings
        assert sorted(calls) == sorted(set(returned))


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
        assert result.config.fusion == "beam"
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

    def test_an_in_beam_weight_whose_total_overflows_is_refused(self, homophone):
        # "eye" costs 2.08 under the grammar, and 1e308 * 2.08 is +inf
        _, resources, alphabet = homophone
        scorer = TableScorer(alphabet, {"u0": point_rows(alphabet, ["ay", EOW, EOS])})
        with pytest.raises(DecodeError, match=r"overflow.*lm_weight 1e\+308"):
            decode(scorer, resources, make_utt(), DecodeConfig(fusion="beam", lm_weight=1e308))

    @pytest.mark.parametrize("lam", [0.1, 1e308])
    def test_a_coverage_weight_whose_reward_overflows_is_refused(self, homophone, lam):
        # the reward alone would make every total -inf, and with an
        # infinite lattice cost it would be NaN, which no cut ever keeps
        _, resources, alphabet = homophone
        rows = point_rows(alphabet, ["ay", EOW, "ae", "m", EOW, EOS])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(fusion="both", lm_weight=lam, lm_weight_nbest=lam, coverage_weight=1e308)
        with pytest.raises(DecodeError, match=r"overflow.*coverage_weight 1e\+308"):
            decode(scorer, resources, make_utt(), cfg)
        # the search itself refuses before it starts
        with pytest.raises(DecodeError, match=r"overflow.*coverage_weight 1e\+308"):
            fused_beam_search(scorer, resources.graph_for(alphabet), make_utt(), cfg)

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
    """Count the scorer step calls of the decoder (one per depth) and of
    the reference beam (one per live entry) inside the block."""
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


def random_resources(rng, eow_mode: str, order: int = 2, smoothing: str = "absdisc") -> DecodeResources:
    """A random lexicon over phones a, b, c and an n-gram model (a bigram
    by default) from random sentences over its words (each word also
    spoken alone once)."""
    phones = ["a", "b", "c"]
    words = [f"w{i}" for i in range(int(rng.integers(2, 5)))]
    text = "".join(
        f"{w}\t{' '.join(rng.choice(phones, size=int(rng.integers(1, 3))))}\n" for w in words
    )
    corpus = [[w] for w in words] + [
        [str(w) for w in rng.choice(words, size=int(rng.integers(1, 4)))] for _ in range(6)
    ]
    lm = train_ngram(corpus, order=order, smoothing=smoothing)
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

    def step(self, states, tokens):
        prefixes = [() if token is None else (*state, token) for state, token in zip(states, tokens)]
        stop = rows_for(self.alphabet, [{EOS: 1.0}])[0]
        return log_rows([self.dists.get(prefix, stop) for prefix in prefixes]), prefixes

    def covered(self, states, threshold):
        counts = []
        for state in states:
            while state not in self.cov:
                state = state[:-1]
            counts.append(self.cov[state])
        return counts


class RowPerState:
    """A table scorer that returns a copy of its row for each state, as a
    scorer with a (B, V) step does, where the table returns one row object
    for them all."""

    def __init__(self, table: TableScorer):
        self.table, self.alphabet = table, table.alphabet
        self.widest = 0

    def token_limit(self, utt):
        return self.table.token_limit(utt)

    def start(self, utt):
        return self.table.start(utt)

    def step(self, states, tokens):
        rows, nxt = self.table.step(states, tokens)
        self.widest = max(self.widest, len(states))
        return [list(row) for row in rows], nxt

    def covered(self, states, threshold):
        return self.table.covered(states, threshold)


class TestSharedRows:
    """A table step hands every live entry the one row object, which
    decodes exactly as a copy of it per entry; a step that returns any
    other count of rows than one per entry is refused."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "fusion, eta", [("none", 0.0), ("nbest", 0.0), ("beam", 0.0), ("beam", 0.3), ("both", 0.0), ("both", 0.3)]
    )
    def test_one_shared_row_decodes_as_a_row_per_state(self, seed, fusion, eta):
        rng = np.random.default_rng(seed)
        if fusion == "none":
            resources, alphabet = None, make_alphabet("a", "b", "<space>")
        else:
            resources, alphabet = random_resources(rng, "optional"), make_alphabet("a", "b", "c", EOW)
        steps = 6
        # some exact zeros, so entries without a log-probability are met too
        banned = [(int(rng.integers(steps)), str(rng.choice(["a", "b", EOS]))) for _ in range(4)]
        table = TableScorer(alphabet, {"u0": random_rows(alphabet, rng, steps, banned)})
        cfg = DecodeConfig(
            fusion=fusion,
            lm_weight=0.0 if fusion in ("none", "nbest") else 0.4,
            lm_weight_nbest=0.3 if fusion in ("nbest", "both") else None,
            coverage_weight=eta,
            beam_width=4,
            nbest_size=3,
        )
        per_state = RowPerState(table)
        shared = json.dumps(decode(table, resources, make_utt(), cfg).to_dict())
        assert json.dumps(decode(per_state, resources, make_utt(), cfg).to_dict()) == shared
        assert per_state.widest > 1

    def test_one_row_for_many_states_is_refused(self):
        class OneRowForMany(TableScorer):
            """Returns only the first row once two or more states step together."""

            def step(self, states, tokens):
                rows, nxt = super().step(states, tokens)
                return (rows[:1] if len(states) >= 2 else rows), nxt

        alphabet = make_alphabet("a", "b", "c")
        rows = rows_for(alphabet, [{"a": 0.3, "b": 0.3, "c": 0.3, EOS: 0.1}] * 3 + [{EOS: 1.0}])
        scorer = OneRowForMany(alphabet, {"u0": rows})
        with pytest.raises(DecodeError, match=r"1 rows for \d+ live hypotheses"):
            beam_search(scorer, make_utt(), DecodeConfig(beam_width=4))

    def test_a_step_with_neither_one_row_nor_one_per_state_is_refused(self):
        class TwoRowsForMany(TableScorer):
            """Returns two rows once three or more states step together."""

            def step(self, states, tokens):
                rows, nxt = super().step(states, tokens)
                return (rows[:2] if len(states) >= 3 else rows), nxt

        alphabet = make_alphabet("a", "b", "c")
        rows = rows_for(alphabet, [{"a": 0.3, "b": 0.3, "c": 0.3, EOS: 0.1}] * 3 + [{EOS: 1.0}])
        scorer = TwoRowsForMany(alphabet, {"u0": rows})
        with pytest.raises(DecodeError, match="2 rows for 3 live hypotheses"):
            beam_search(scorer, make_utt(), DecodeConfig(beam_width=4))


class TestNoLogInTheBeam:
    """The beam reads the log-probability rows a scorer hands it as they
    are: a table scorer takes an utterance's logs when it is first
    started, one per distinct probability, and its decodes take none."""

    def test_a_table_decode_takes_no_log(self, homophone, monkeypatch):
        _, resources, alphabet = homophone
        rows = random_rows(alphabet, np.random.default_rng(3), 6)
        calls = []

        def log(*args):
            calls.append(args)
            return math.log(*args)

        counting = SimpleNamespace(**vars(math))
        counting.log = log
        # math.log as the decoder and the scorers look it up
        monkeypatch.setattr(decoder_mod, "math", counting)
        monkeypatch.setattr(scorer_mod, "math", counting)
        table = TableScorer(alphabet, {"u0": rows, "u1": rows[::-1]})
        assert calls == []  # building a table takes no log
        table.start(make_utt())
        assert sorted(calls) == sorted((p,) for p in set(rows.flat) if p > 0.0)
        calls.clear()
        fused = decode(table, resources, make_utt(), DecodeConfig(fusion="beam", lm_weight=0.3, beam_width=4))
        unfused = beam_search(table, make_utt(), DecodeConfig(beam_width=4))
        assert fused.hypotheses and unfused.entries
        assert calls == []
        # another utterance's rows reuse every log already taken
        table.start(make_utt("u1"))
        assert calls == []


def split_start_graph(alphabet: SymbolTable, symbols) -> FusionGraph:
    """A free graph whose start set is two states: state 0 reads the back
    half of ``symbols`` and, over a free epsilon, state 1 reads the front
    half; every arc returns to state 0.  So a label table lists the back
    half first, and a set's children do not arrive in token order."""
    syms = SymbolTable(list(symbols))
    half = len(symbols) // 2
    arcs = [Arc(0, 1, 0, 0, 0.0)]
    arcs += [Arc(0, 0, i, i, 0.0) for i in range(half + 1, len(symbols) + 1)]
    arcs += [Arc(1, 0, i, i, 0.0) for i in range(1, half + 1)]
    return FusionGraph(build_fst(arcs, 0, {0: 0.0}, syms, syms), alphabet)


class TestSurvivorCut:
    """A depth's candidates are kept in a buffer of at most twice the beam
    width, cut back to the beam width whenever it fills; a child costing
    more than the last kept one is never built.  The beam keeps exactly
    what the unbounded sort of every child keeps."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_tokens=st.integers(8, 12),
        steps=st.integers(1, 4),
        beam_width=st.integers(1, 4),
        nbest_size=st.integers(1, 4),
        fusion_eta=st.sampled_from([("none", 0.0), ("beam", 0.0), ("beam", 0.5), ("both", 0.0), ("both", 0.5)]),
    )
    def test_tied_children_match_reference(self, seed, n_tokens, steps, beam_width, nbest_size, fusion_eta):
        # Probabilities and arc weights come from a few repeated values, so
        # many children tie exactly at the cut, and a depth has up to 48
        # children for a buffer of 2 to 8.
        fusion, eta = fusion_eta
        rng = np.random.default_rng(seed)
        symbols = [f"t{k:02d}" for k in range(n_tokens)]
        alphabet = make_alphabet(*symbols)
        mass = rng.choice([0.0, 1.0, 1.0, 2.0, 4.0], size=(steps + 1, len(alphabet)))
        mass[:, 0] = mass[:, alphabet.id(SOS)] = 0.0
        mass[:, alphabet.id(symbols[0])] = 1.0  # no empty row
        scorer = TableScorer(alphabet, {"u0": mass / mass.sum(axis=1, keepdims=True)})
        graph = None
        if fusion != "none":
            n_states = int(rng.integers(1, 4))
            syms = SymbolTable(symbols)
            arcs = [Arc(0, 0, 1, 1, 0.0)]  # a graph must read some token
            arcs += [
                Arc(q, int(rng.integers(n_states)), label, label, float(rng.choice([0.0, 0.5, 1.0])))
                for q in range(n_states)
                for label in range(1, n_tokens + 1)
                if rng.random() < 0.7
            ]
            # epsilons give sets of several states, whose label tables are
            # not in token order
            arcs += [Arc(q, q + 1, 0, 0, float(rng.choice([0.0, 0.5]))) for q in range(n_states - 1)]
            finals = {q: float(rng.choice([0.0, 0.5])) for q in range(n_states) if rng.random() < 0.6}
            graph = FusionGraph(build_fst(arcs, 0, finals, syms, syms, num_states=n_states), alphabet)
        cfg = DecodeConfig(
            fusion=fusion,
            lm_weight=0.0 if fusion == "none" else 1.0,
            lm_weight_nbest=0.5 if fusion == "both" else None,
            coverage_weight=eta,
            beam_width=beam_width,
            nbest_size=nbest_size,
        )
        assert search(scorer, make_utt(), cfg, graph) == reference_expand(
            scorer, make_utt(), cfg, graph
        )

    @pytest.mark.parametrize("fused", [False, True])
    def test_equal_children_keep_the_smallest_token_strings(self, fused):
        # Twelve equal children of one parent and a two-wide beam: the
        # buffer of four fills and is cut back to two five times at the
        # first depth, and every child after the first cut ties at it.  The
        # second depth has 24 equal children.  The fused graph hands the
        # children of each set over back half first.
        symbols = "abcdefghijkl"
        alphabet = make_alphabet(*symbols)
        even = {s: 1 / 12 for s in symbols}
        scorer = TableScorer(alphabet, {"u0": rows_for(alphabet, [even, even, {EOS: 1.0}])})
        if fused:
            graph = split_start_graph(alphabet, symbols)
            cfg = DecodeConfig(fusion="beam", lm_weight=1.0, beam_width=2)
        else:
            graph, cfg = None, DecodeConfig(beam_width=2)
        got = search(scorer, make_utt(), cfg, graph)
        assert got == reference_expand(scorer, make_utt(), cfg, graph)
        assert got.complete
        assert [h.tokens for h in got.entries] == [alphabet.encode(["a", "a"]), alphabet.encode(["a", "b"])]


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

    def test_negative_weight_graph_is_refused_before_search(self):
        # Stopping at once (<eos> costs 0.51) beats "a" (0.92) so far, but
        # the -10 arc would make "a a" the cheapest finished string: the
        # threshold stop would miss it, so no search can be given the graph.
        alphabet = make_alphabet("a")
        syms = SymbolTable(["a"])
        lg = build_fst(
            [Arc(0, 1, 1, 1, 0.0), Arc(1, 2, 1, 1, -10.0)], 0, {0: 0.0, 1: 0.0, 2: 0.0}, syms, syms
        )
        with pytest.raises(DecodeError, match="negative weight"):
            FusionGraph(lg, alphabet)

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
        rows = rows_for(alphabet, [{EOS: 0.6, "a": 0.4}, {EOS: 0.5, "a": 0.5}, {EOS: 1.0}])
        scorer = TableScorer(alphabet, {"u0": rows})
        cfg = DecodeConfig(
            fusion=fusion,
            lm_weight=0.0 if fusion == "nbest" else 1.0,
            lm_weight_nbest=None if fusion == "beam" else 1.0,
            nbest_size=1,
        )
        with counted_steps() as calls, pytest.raises(DecodeError, match="negative weight"):
            decode(scorer, resources, make_utt(), cfg)
        assert calls[0] == 0

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
            counts = real(*args)
            seen.extend(counts)
            return counts

        with mock.patch.object(oracles, "coverage_count", recorded):
            reference_expand(scorer, utt, cfg, resources.graph_for(alphabet))
        assert seen
        assert max(seen) <= cap
        if kind == "model" and threshold < 0:
            assert max(seen) == cap == frames


@contextmanager
def within(seconds: float):
    """Fail with ``TimeoutError`` instead of hanging if the block runs
    longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


NEGATIVE_LEXICONS = ["arc", "final", "start-eps-cycle", "later-eps-cycle"]


def negative_resources(kind: str) -> DecodeResources:
    """The homophone fixture's machines with one negative weight in the
    lexicon: -10 on the ``m`` arc, -1 on the final root, or an epsilon
    self-loop of -1 at the root or after ``ae``.  Composition keeps each
    one in L o G; an epsilon closure over either cycle never settles."""
    lex = compile_lexicon(parse_lexicon("I\tay\neye\tay\nam\tae m\n"), eow_mode="required")
    arcs, finals = list(lex.arcs), lex.finals
    if kind == "arc":
        m = lex.isyms.id("m")
        arcs = [dataclasses.replace(a, weight=-10.0) if a.ilabel == m else a for a in arcs]
    elif kind == "final":
        finals = {q: -1.0 for q in finals}
    else:
        q = lex.start
        if kind == "later-eps-cycle":
            q = next(a.dst for a in arcs if a.ilabel == lex.isyms.id("ae"))
        arcs.append(Arc(q, q, 0, 0, -1.0))
    lex = build_fst(arcs, lex.start, finals, lex.isyms, lex.osyms, num_states=lex.num_states)
    lm = train_ngram([["I", "am"]] * 3 + [["eye"]], order=2, smoothing="absdisc")
    return DecodeResources(lex, lm_to_fst(lm))


class TestLatticeGate:
    """``FusionGraph`` refuses a negative arc or final weight before any
    epsilon closure, so every way into a fused decode fails at once instead
    of searching, or closing over, a lattice whose costs can fall."""

    ALPHABET = make_alphabet("ay", "ae", "m", EOW)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        eow_mode=st.sampled_from(["required", "optional"]),
        order=st.integers(1, 4),
        smoothing=st.sampled_from(["mle", "absdisc"]),
    )
    def test_every_program_lattice_passes(self, seed, eow_mode, order, smoothing):
        resources = random_resources(np.random.default_rng(seed), eow_mode, order, smoothing)
        assert all(a.weight >= 0.0 for a in resources.lg.arcs)
        assert all(w >= 0.0 for w in resources.lg.finals.values())
        assert resources.graph_for(make_alphabet("a", "b", "c", EOW)).start

    @pytest.mark.parametrize("kind", NEGATIVE_LEXICONS)
    def test_fusion_graph_refuses(self, kind):
        with within(5.0):
            resources = negative_resources(kind)
            with pytest.raises(DecodeError, match="negative weight"):
                FusionGraph(resources.lg, self.ALPHABET)

    @pytest.mark.parametrize("kind", NEGATIVE_LEXICONS)
    def test_graph_for_refuses_and_caches_nothing(self, kind):
        with within(5.0):
            resources = negative_resources(kind)
            for _ in range(2):
                with pytest.raises(DecodeError, match="negative weight"):
                    resources.graph_for(self.ALPHABET)

    @pytest.mark.parametrize("kind", NEGATIVE_LEXICONS)
    def test_decode_batch_refuses_before_the_first_decode(self, kind, monkeypatch):
        decoded = []
        monkeypatch.setattr(decoder_mod, "decode", lambda *args: decoded.append(args))
        scorer = TableScorer(self.ALPHABET, {"u0": point_rows(self.ALPHABET, ["ay", EOW, EOS])})
        cfg = DecodeConfig(fusion="beam", lm_weight=1.0)
        with within(5.0):
            resources = negative_resources(kind)
            with pytest.raises(DecodeError, match="negative weight"):
                decode_batch(scorer, resources, [make_utt()], cfg)
        assert decoded == []

    @pytest.mark.parametrize("fusion", ["nbest", "beam", "both"])
    @pytest.mark.parametrize("kind", NEGATIVE_LEXICONS)
    def test_decode_refuses_before_any_scorer_step(self, kind, fusion):
        scorer = TableScorer(self.ALPHABET, {"u0": point_rows(self.ALPHABET, ["ay", EOW, EOS])})
        cfg = DecodeConfig(
            fusion=fusion,
            lm_weight=0.0 if fusion == "nbest" else 1.0,
            lm_weight_nbest=None if fusion == "beam" else 1.0,
        )
        with within(5.0), counted_steps() as calls:
            resources = negative_resources(kind)
            with pytest.raises(DecodeError, match="negative weight"):
                decode(scorer, resources, make_utt(), cfg)
        assert calls[0] == 0
