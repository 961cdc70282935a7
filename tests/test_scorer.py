from __future__ import annotations

import dataclasses
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import scorer as scorer_mod
from fusedec.fst import SymbolTable
from fusedec.scorer import (
    ScorerError,
    TableScorer,
    ToyLasModel,
    Utterance,
    coverage_count,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    step_distributions,
    teacher_forced_accuracy,
    train_model,
    write_loss_trace,
)

from oracles import (
    head_weights,
    reference_decode_step,
    reference_state,
    reference_teacher_forced_accuracy,
    replay_coverage,
    replay_distribution,
)


@pytest.fixture
def abc_alphabet():
    return SymbolTable(["a", "b", "c", "<sos>", "<eos>"])


def tiny_model(alphabet, *, n_heads=1, n_enc_layers=1, seed=0, scale=1.0):
    m = ToyLasModel.init(
        alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3, embed_dim=3,
        n_heads=n_heads, n_enc_layers=n_enc_layers, seed=seed,
    )
    if scale != 1.0:
        for k in m.params:
            m.params[k] *= scale
    return m


def make_utt(alphabet, rng, uid="u0", T=4, words="a b"):
    ref = tuple(alphabet.id(w) for w in words.split()) + (alphabet.id("<eos>"),)
    return Utterance(uid, rng.normal(size=(T, 3)), ref)


def step_one(scorer, state, token):
    """One protocol step of a single state: (distribution, next state)."""
    dists, (state,) = step_distributions(scorer, [state], [token])
    return dists[0], state


def chain(scorer, utt, prefix):
    """Step a scorer from its start state through ``prefix``; returns the
    distribution after the last step and the state that follows it."""
    dist, state = step_one(scorer, scorer.start(utt), None)
    for y in prefix:
        dist, state = step_one(scorer, state, y)
    return dist, state


class TestUtterance:
    def test_features_must_be_2d(self):
        with pytest.raises(ScorerError, match="T, d"):
            Utterance("u", np.zeros(5), (1,))

    def test_at_least_one_frame(self):
        with pytest.raises(ScorerError, match="T >= 1"):
            Utterance("u", np.zeros((0, 3)), (1,))

    def test_empty_reference(self):
        with pytest.raises(ScorerError, match="reference"):
            Utterance("u", np.zeros((2, 3)), ())

    def test_features_cast_to_float64(self):
        u = Utterance("u", np.ones((2, 3), dtype=np.float32), (1,))
        assert u.features.dtype == np.float64

    def test_non_finite_frame_is_refused(self):
        x = np.ones((3, 2))
        x[1, 0] = np.nan
        with pytest.raises(ScorerError, match="non-finite value in frame 1"):
            Utterance("u", x, (1,))


class TestTableScorer:
    def test_row_passthrough(self, abc_alphabet):
        rows = np.zeros((3, len(abc_alphabet)))
        rows[:, abc_alphabet.id("a")] = [1.0, 0.25, 0.0]
        rows[:, abc_alphabet.id("b")] = [0.0, 0.75, 0.0]
        rows[:, abc_alphabet.id("<eos>")] = [0.0, 0.0, 1.0]
        ts = TableScorer(abc_alphabet, {"u0": rows})
        utt = Utterance("u0", np.zeros((3, 2)), (1,))
        np.testing.assert_array_equal(chain(ts, utt, [])[0], rows[0])
        np.testing.assert_array_equal(chain(ts, utt, [1, 2])[0], rows[2])
        assert ts.token_limit(utt) == 2

    def test_prefix_beyond_rows(self, abc_alphabet):
        rows = np.zeros((2, len(abc_alphabet)))
        rows[:, abc_alphabet.id("a")] = 1.0
        ts = TableScorer(abc_alphabet, {"u0": rows})
        utt = Utterance("u0", np.zeros((2, 2)), (1,))
        _, state = chain(ts, utt, [1])
        with pytest.raises(ScorerError, match="exceeds the 2 stored steps"):
            step_distributions(ts, [state], [1])

    def test_bad_row_sum(self, abc_alphabet):
        rows = np.zeros((1, len(abc_alphabet)))
        rows[0, abc_alphabet.id("a")] = 0.9
        with pytest.raises(ScorerError, match="sums to"):
            TableScorer(abc_alphabet, {"u0": rows})

    def test_negative_mass(self, abc_alphabet):
        rows = np.zeros((1, len(abc_alphabet)))
        rows[0, abc_alphabet.id("a")] = 1.5
        rows[0, abc_alphabet.id("b")] = -0.5
        with pytest.raises(ScorerError, match="negative"):
            TableScorer(abc_alphabet, {"u0": rows})

    def test_probability_above_one(self, abc_alphabet):
        # within the 1e-9 sum tolerance, but log p > 0 would let a step
        # lower a hypothesis's cost and break the beam's threshold pruning
        rows = np.zeros((1, len(abc_alphabet)))
        rows[0, abc_alphabet.id("a")] = 1.0 + 4e-10
        with pytest.raises(ScorerError, match="above 1"):
            TableScorer(abc_alphabet, {"u0": rows})

    def test_mass_on_sos_rejected(self, abc_alphabet):
        rows = np.zeros((1, len(abc_alphabet)))
        rows[0, abc_alphabet.id("<sos>")] = 1.0
        with pytest.raises(ScorerError, match="<sos>"):
            TableScorer(abc_alphabet, {"u0": rows})

    def test_unknown_utterance(self, abc_alphabet):
        ts = TableScorer(abc_alphabet, {})
        utt = Utterance("ghost", np.zeros((1, 2)), (1,))
        with pytest.raises(ScorerError, match="ghost"):
            ts.start(utt)
        with pytest.raises(ScorerError, match="ghost"):
            ts.token_limit(utt)

    def test_alphabet_needs_eos(self):
        with pytest.raises(ScorerError, match="<eos>"):
            TableScorer(SymbolTable(["a"]), {})

    def test_coverage_is_step_count(self, abc_alphabet):
        rows = np.zeros((4, len(abc_alphabet)))
        rows[:, abc_alphabet.id("a")] = 1.0
        ts = TableScorer(abc_alphabet, {"u0": rows})
        utt = Utterance("u0", np.zeros((4, 2)), (1,))
        _, state = chain(ts, utt, [1, 1])
        assert coverage_count(ts, [state, state], 0.5) == [3, 3]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        steps=st.integers(1, 6),
        depth=st.integers(0, 5),
        tokens=st.lists(st.sampled_from([None, 1, 2]), min_size=1, max_size=8),
    )
    def test_one_depth_steps_to_its_row(self, seed, steps, depth, tokens):
        # B states at one depth get row k of the table bit for bit, as one
        # row standing for every state, and all move to depth k + 1
        alphabet = SymbolTable(["a", "b", "<sos>", "<eos>"])
        rows = np.random.default_rng(seed).random((steps, len(alphabet)))
        rows[:, [0, alphabet.id("<sos>")]] = 0.0
        ts = TableScorer(alphabet, {"u": rows / rows.sum(axis=1, keepdims=True)})
        utt = Utterance("u", np.zeros((1, 1)), (1,))
        k = min(depth, steps - 1)
        state = ts.start(utt)
        for _ in range(k):
            _, state = step_one(ts, state, 1)
        dists, states = step_distributions(ts, [state] * len(tokens), tokens)
        assert dists.shape == (1, len(alphabet))
        assert np.array_equal(dists[0], ts.rows["u"][k])
        assert states == [("u", ts.rows["u"], k + 1)] * len(tokens)
        assert coverage_count(ts, states, 0.5) == [k + 1] * len(tokens)

    def test_states_of_two_depths_are_refused(self, abc_alphabet):
        rows = np.zeros((3, len(abc_alphabet)))
        rows[:, abc_alphabet.id("a")] = 1.0
        ts = TableScorer(abc_alphabet, {"u0": rows})
        utt = Utterance("u0", np.zeros((3, 2)), (1,))
        with pytest.raises(ScorerError, match="one utterance at one depth"):
            step_distributions(ts, [ts.start(utt), chain(ts, utt, [])[1]], [1, 1])


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def encode_oracle(model, x):
    """Pure-Python re-statement of the encoder recurrence."""
    seq = [[float(v) for v in row] for row in x]
    for layer in range(model.n_enc_layers):
        Wz = model.params[f"enc{layer}_Wz"].tolist()
        Uz = model.params[f"enc{layer}_Uz"].tolist()
        bz = model.params[f"enc{layer}_bz"].tolist()
        Wh = model.params[f"enc{layer}_Wh"].tolist()
        Uh = model.params[f"enc{layer}_Uh"].tolist()
        bh = model.params[f"enc{layer}_bh"].tolist()
        n = model.enc_hidden
        h = [0.0] * n
        outs = []
        for xt in seq:
            z = [
                sigmoid(sum(xt[i] * Wz[i][j] for i in range(len(xt)))
                        + sum(h[i] * Uz[i][j] for i in range(n)) + bz[j])
                for j in range(n)
            ]
            g = [
                math.tanh(sum(xt[i] * Wh[i][j] for i in range(len(xt)))
                          + sum(h[i] * Uh[i][j] for i in range(n)) + bh[j])
                for j in range(n)
            ]
            h = [(1.0 - z[j]) * h[j] + z[j] * g[j] for j in range(n)]
            outs.append(h)
        seq = outs
    return seq


def attend_oracle(model, h_enc, s):
    """Additive attention, one head at a time, in plain Python."""
    contexts, weights = [], []
    T = len(h_enc)
    for j in range(model.n_heads):
        Wq, Wk, v = (w.tolist() for w in head_weights(model, j))
        scores = []
        for t in range(T):
            u = [
                math.tanh(
                    sum(s[i] * Wq[i][k] for i in range(model.dec_hidden))
                    + sum(h_enc[t][i] * Wk[i][k] for i in range(model.enc_hidden))
                )
                for k in range(model.att_dim)
            ]
            scores.append(sum(u[k] * v[k] for k in range(model.att_dim)))
        mx = max(scores)
        exps = [math.exp(e - mx) for e in scores]
        total = sum(exps)
        alpha = [e / total for e in exps]
        c = [
            sum(alpha[t] * h_enc[t][i] for t in range(T))
            for i in range(model.enc_hidden)
        ]
        contexts.append(c)
        weights.append(alpha)
    return contexts, weights


class TestEncode:
    def test_zero_parameters_give_zero_encoding(self, abc_alphabet):
        m = tiny_model(abc_alphabet, scale=0.0)
        h = m.encode(np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_array_equal(h, np.zeros((4, 4)))

    def test_single_frame_shape(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        assert m.encode(np.ones((1, 3))).shape == (1, 4)

    def test_frame_count_preserved(self, abc_alphabet):
        m = tiny_model(abc_alphabet, n_enc_layers=2)
        assert m.encode(np.ones((7, 3))).shape == (7, 4)

    def test_dimension_mismatch(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        with pytest.raises(ScorerError, match=r"\(T, 3\)"):
            m.encode(np.ones((4, 5)))

    def test_non_finite_frame_is_refused(self, abc_alphabet):
        # a decode starts here, so it must not search over NaN attention
        m = tiny_model(abc_alphabet)
        x = np.ones((4, 3))
        x[2, 1] = np.nan
        with pytest.raises(ScorerError, match="non-finite value in frame 2"):
            m.encode(x)
        with pytest.raises(ScorerError, match="non-finite value in frame 0"):
            m.encode(np.full((3, 3), np.inf))

    def test_matches_straight_line_recurrence(self, abc_alphabet):
        rng = np.random.default_rng(5)
        for layers in (1, 2):
            m = tiny_model(abc_alphabet, n_enc_layers=layers, seed=9, scale=3.0)
            x = rng.normal(size=(5, 3))
            got = m.encode(x)
            want = encode_oracle(m, x)
            np.testing.assert_allclose(got, np.array(want), atol=1e-10)


def attend(model, h_enc, s):
    """``model._attend`` for one utterance, with the keys ``init_state``
    computes: (contexts (H, enc_hidden), weights (H, T))."""
    state = model.init_state(h_enc)
    _, alpha, contexts = model._attend(state.keys, s[None], h_enc)
    return contexts.reshape(model.n_heads, model.enc_hidden), alpha[0]


class TestAttend:
    def test_single_frame_attends_fully(self, abc_alphabet):
        m = tiny_model(abc_alphabet, n_heads=2)
        h_enc = np.random.default_rng(1).normal(size=(1, 4))
        contexts, weights = attend(m, h_enc, np.zeros(4))
        np.testing.assert_allclose(weights, np.ones((2, 1)))
        for j in range(2):
            np.testing.assert_allclose(contexts[j], h_enc[0])

    def test_identical_frames_uniform(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        h_enc = np.tile(np.random.default_rng(2).normal(size=4), (5, 1))
        _, weights = attend(m, h_enc, np.ones(4))
        np.testing.assert_allclose(weights, np.full((1, 5), 0.2))

    def test_matches_straight_line_formula(self, abc_alphabet):
        rng = np.random.default_rng(3)
        m = tiny_model(abc_alphabet, n_heads=3, seed=4, scale=4.0)
        h_enc = rng.normal(size=(5, 4))
        s = rng.normal(size=4)
        contexts, weights = attend(m, h_enc, s)
        want_c, want_w = attend_oracle(m, h_enc.tolist(), s.tolist())
        np.testing.assert_allclose(contexts, np.array(want_c), atol=1e-10)
        np.testing.assert_allclose(weights, np.array(want_w), atol=1e-10)

    def test_duplicated_heads_agree(self, abc_alphabet):
        m = tiny_model(abc_alphabet, n_heads=4, seed=6)
        for j in range(1, 4):
            for block, first in zip(head_weights(m, j), head_weights(m, 0)):
                block[...] = first
        rng = np.random.default_rng(7)
        contexts, weights = attend(m, rng.normal(size=(6, 4)), rng.normal(size=4))
        for j in range(1, 4):
            np.testing.assert_array_equal(contexts[j], contexts[0])
            np.testing.assert_array_equal(weights[j], weights[0])


class TestDecodeStep:
    def test_distribution_normalized_and_masked(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=8, scale=5.0)
        rng = np.random.default_rng(9)
        state = m.init_state(m.encode(rng.normal(size=(4, 3))))
        dist, state = m.decode_step(state, m.sos_id)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist[0] == 0.0 and dist[m.sos_id] == 0.0
        assert np.all(dist >= 0)

    def test_zero_model_is_uniform(self, abc_alphabet):
        m = tiny_model(abc_alphabet, scale=0.0)
        state = m.init_state(m.encode(np.ones((2, 3))))
        dist, _ = m.decode_step(state, m.sos_id)
        live = int(m.emit_mask.sum())
        np.testing.assert_allclose(dist[m.emit_mask], np.full(live, 1.0 / live))

    def test_invalid_symbol(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        state = m.init_state(m.encode(np.ones((2, 3))))
        with pytest.raises(ScorerError, match="out of range"):
            m.decode_step(state, 99)

    def test_cumulative_attention_grows(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=10)
        state = m.init_state(m.encode(np.random.default_rng(11).normal(size=(5, 3))))
        prev = state.cum_attention
        for y in (m.sos_id, 1, 2, 1):
            _, state = m.decode_step(state, y)
            assert np.all(state.cum_attention >= prev - 1e-15)
            assert state.cum_attention.sum() == pytest.approx(prev.sum() + 1.0, abs=1e-9)
            prev = state.cum_attention

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_heads=st.integers(1, 4),
        n_enc_layers=st.integers(1, 2),
        sizes=st.tuples(*[st.integers(1, 5)] * 4),
        frames=st.integers(1, 6),
        tokens=st.lists(st.integers(0, 5), max_size=6),
    )
    def test_matches_per_head_reference(self, seed, n_heads, n_enc_layers, sizes, frames, tokens):
        alphabet = SymbolTable(["a", "b", "c", "<sos>", "<eos>"])
        enc_hidden, dec_hidden, att_dim, embed_dim = sizes
        m = ToyLasModel.init(alphabet, 3, enc_hidden=enc_hidden, dec_hidden=dec_hidden, att_dim=att_dim,
                             embed_dim=embed_dim, n_heads=n_heads, n_enc_layers=n_enc_layers, seed=seed)
        for k in m.params:
            m.params[k] *= 3.0
        h_enc = m.encode(np.random.default_rng(seed).normal(size=(frames, 3)))
        state, ref = m.init_state(h_enc), reference_state(m, h_enc)
        for y in (m.sos_id, *tokens):
            dist, state = m.decode_step(state, y)
            want, ref, _ = reference_decode_step(m, ref, y)
            np.testing.assert_allclose(dist, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.cum_attention, ref.cum_attention, rtol=0, atol=1e-12)
            assert state.steps == ref.steps

    def test_step_distributions_equals_manual_chain(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=12)
        rng = np.random.default_rng(13)
        utt = make_utt(abc_alphabet, rng)
        prefix = [abc_alphabet.id("a"), abc_alphabet.id("b")]
        state = m.init_state(m.encode(utt.features))
        dist, state = m.decode_step(state, m.sos_id)
        for y in prefix:
            dist, state = m.decode_step(state, y)
        np.testing.assert_array_equal(chain(m, utt, prefix)[0], dist)

    def test_prefix_limit(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        utt = make_utt(abc_alphabet, np.random.default_rng(14))
        assert m.token_limit(utt) == scorer_mod.MAX_PREFIX == 256
        _, state = chain(m, utt, [1, 1])
        last = dataclasses.replace(state, steps=scorer_mod.MAX_PREFIX)
        step_distributions(m, [last], [1])
        with pytest.raises(ScorerError, match="prefix of length 257 exceeds the model's limit of 256"):
            step_distributions(m, [dataclasses.replace(state, steps=scorer_mod.MAX_PREFIX + 1)], [1])

    def test_teacher_forced_nll_recomputes(self, abc_alphabet):
        # the training loss must equal the probabilities of a chain of
        # protocol steps, however unequal the padded lengths
        for n_heads, n_enc_layers in ((1, 1), (4, 2)):
            m = tiny_model(abc_alphabet, n_heads=n_heads, n_enc_layers=n_enc_layers,
                           seed=15, scale=2.0)
            rng = np.random.default_rng(16)
            utts = [make_utt(abc_alphabet, rng, "u0", 4, "a b"),
                    make_utt(abc_alphabet, rng, "u1", 3, "c c a"),
                    make_utt(abc_alphabet, rng, "u2", 7, "b"),
                    make_utt(abc_alphabet, rng, "u3", 1, "a c b a c")]
            loss, _ = loss_and_gradients(m, utts)
            total, tokens = 0.0, 0
            for utt in utts:
                state, prev = m.start(utt), None
                for y in utt.reference:
                    dist, state = step_one(m, state, prev)
                    total += -math.log(dist[y])
                    tokens += 1
                    prev = y
            assert loss == pytest.approx(total / tokens, abs=1e-12)


class TestStepBatch:
    """Both scorers refuse a step that is not one token for each of at
    least one state, naming both counts."""

    @staticmethod
    def start_state(kind, alphabet):
        rows = np.zeros((3, len(alphabet)))
        rows[:, alphabet.id("a")] = 1.0
        scorer = TableScorer(alphabet, {"u0": rows}) if kind == "table" else tiny_model(alphabet, seed=56)
        return scorer, scorer.start(Utterance("u0", np.zeros((3, 3)), (1,)))

    @pytest.mark.parametrize("kind", ["table", "model"])
    @pytest.mark.parametrize("n_states, n_tokens", [(2, 1), (1, 2), (3, 0), (0, 0), (0, 1)])
    def test_counts_that_do_not_match_are_refused(self, abc_alphabet, kind, n_states, n_tokens):
        scorer, state = self.start_state(kind, abc_alphabet)
        want = re.escape(f"got {n_states} state(s) and {n_tokens} token(s)")
        with pytest.raises(ScorerError, match=want):
            scorer.step([state] * n_states, [None] * n_tokens)
        with pytest.raises(ScorerError, match=want):
            step_distributions(scorer, [state] * n_states, [None] * n_tokens)
        if kind == "model":
            with pytest.raises(ScorerError, match=want):
                scorer.decode_steps([state] * n_states, [1] * n_tokens)

    @pytest.mark.parametrize("order", [(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    def test_a_table_step_refuses_another_depth_beside_a_shared_state(self, abc_alphabet, order):
        # the live entries of a depth share the state the last step
        # returned; one of another depth is refused wherever it stands
        scorer, start = self.start_state("table", abc_alphabet)
        _, (deeper,) = scorer.step([start], [None])
        states = [(start, deeper)[i] for i in order]
        with pytest.raises(ScorerError, match="one utterance at one depth"):
            scorer.step(states, [1] * len(states))

    def test_equal_table_states_need_not_be_one_object(self, abc_alphabet):
        scorer, start = self.start_state("table", abc_alphabet)
        dists, states = scorer.step([start, ("u0", start[1], 0), ("u0", start[1], 0)], [None] * 3)
        assert dists.shape == (1, len(abc_alphabet)) and states == [("u0", start[1], 1)] * 3


class TestDecodeSteps:
    """A beam's live hypotheses stepped at once: row i is state i's step."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_heads=st.integers(1, 4),
        n_enc_layers=st.integers(1, 2),
        sizes=st.tuples(*[st.integers(1, 5)] * 4),
        frames=st.integers(1, 6),
        paths=st.lists(st.lists(st.integers(0, 11), max_size=4), min_size=1, max_size=3),
        picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 11)), min_size=1, max_size=8),
    )
    def test_rows_match_per_head_reference(self, seed, n_heads, n_enc_layers, sizes, frames, paths, picks):
        # ten emittable symbols: numpy sums eight or more values pairwise
        # along a contiguous row, so a row summed in another order shows
        alphabet = SymbolTable([*"abcdefghi", "<sos>", "<eos>"])
        enc_hidden, dec_hidden, att_dim, embed_dim = sizes
        m = ToyLasModel.init(alphabet, 3, enc_hidden=enc_hidden, dec_hidden=dec_hidden, att_dim=att_dim,
                             embed_dim=embed_dim, n_heads=n_heads, n_enc_layers=n_enc_layers, seed=seed)
        for k in m.params:
            m.params[k] *= 3.0
        h_enc = m.encode(np.random.default_rng(seed).normal(size=(frames, 3)))
        # every prefix of every path: states of mixed depths, the last of
        # each path with its attention not yet computed
        pool = [(m.init_state(h_enc), reference_state(m, h_enc))]
        for path in paths:
            state, ref = pool[0]
            for y in (m.sos_id, *path):
                _, state = m.decode_step(state, y)
                _, ref, _ = reference_decode_step(m, ref, y)
                pool.append((state, ref))
        chosen = [(*pool[i % len(pool)], y) for i, y in picks]  # parents may repeat
        dists, states = m.decode_steps([state for state, _, _ in chosen], [y for _, _, y in chosen])
        assert dists.shape == (len(chosen), len(alphabet)) and len(states) == len(chosen)
        for row, nxt, (state, ref, y) in zip(dists, states, chosen):
            want, ref_next, _ = reference_decode_step(m, ref, y)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(nxt.cum_attention, ref_next.cum_attention, rtol=0, atol=1e-12)
            assert nxt.steps == ref_next.steps == state.steps + 1
            # and bit for bit what the state gives when stepped alone
            alone, after = m.decode_step(dataclasses.replace(state), y)
            assert np.array_equal(row, alone)
            assert after == nxt

    def test_states_of_two_utterances_are_refused(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=54)
        rng = np.random.default_rng(55)
        a, b = (m.init_state(m.encode(rng.normal(size=(3, 3)))) for _ in range(2))
        with pytest.raises(ScorerError, match="one utterance"):
            m.decode_steps([a, b], [1, 1])


class TestStepStateEquality:
    def test_equal_states_compare_equal(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=50)
        x = np.random.default_rng(51).normal(size=(4, 3))
        a, b = m.init_state(m.encode(x)), m.init_state(m.encode(x))
        assert a.h_enc is not b.h_enc
        assert a == b and not a != b
        assert m.decode_step(a, 1)[1] == m.decode_step(b, 1)[1]

    def test_a_different_field_compares_unequal(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=52)
        state = m.init_state(m.encode(np.ones((3, 3))))
        assert state != dataclasses.replace(state, s=state.s + 1.0)
        assert state != dataclasses.replace(state, coverage=state.coverage + 1.0)
        assert state != dataclasses.replace(state, context=state.context + 1.0)
        assert state != dataclasses.replace(state, steps=1)
        assert state != "not a state"

    def test_states_are_unhashable(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=53)
        state = m.init_state(m.encode(np.ones((3, 3))))
        assert state == dataclasses.replace(state)
        with pytest.raises(TypeError):
            hash(state)


class TestGradients:
    @pytest.mark.parametrize("n_heads,n_enc_layers", [(1, 1), (4, 2)])
    def test_matches_central_differences(self, abc_alphabet, n_heads, n_enc_layers):
        m = tiny_model(abc_alphabet, n_heads=n_heads, n_enc_layers=n_enc_layers,
                       seed=1, scale=10.0)
        rng = np.random.default_rng(7)
        a, b, eos = (abc_alphabet.id(s) for s in ("a", "b", "<eos>"))
        utts = [
            Utterance("u0", rng.normal(size=(5, 3)), (a, b, a, eos)),
            Utterance("u1", rng.normal(size=(2, 3)), (b, eos)),
        ]
        _, grads = loss_and_gradients(m, utts)
        eps = 1e-6
        for k in sorted(grads):
            p = m.params[k]
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                lp, _ = loss_and_gradients(m, utts)
                p[idx] = orig - eps
                lm, _ = loss_and_gradients(m, utts)
                p[idx] = orig
                fd[idx] = (lp - lm) / (2 * eps)
            num = np.linalg.norm(grads[k] - fd)
            den = max(np.linalg.norm(grads[k]), np.linalg.norm(fd), 1e-12)
            assert num / den < 1e-4, f"{k}: rel err {num / den}"

    def test_empty_corpus(self, abc_alphabet):
        with pytest.raises(ScorerError, match="empty"):
            loss_and_gradients(tiny_model(abc_alphabet), [])

    def test_reference_validation(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        rng = np.random.default_rng(18)
        eos, sos = abc_alphabet.id("<eos>"), abc_alphabet.id("<sos>")
        cases = [
            ((1, 2), "end with"),
            ((1, eos, 2, eos), "before its end"),
            ((sos, eos), "non-emittable"),
            ((42, eos), "out of range"),
        ]
        for ref, msg in cases:
            utt = Utterance("u", rng.normal(size=(2, 3)), ref)
            with pytest.raises(ScorerError, match=msg):
                loss_and_gradients(m, [utt])

    def test_feature_width_names_the_utterance(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        rng = np.random.default_rng(19)
        utts = [make_utt(abc_alphabet, rng, "u0"),
                Utterance("u1", rng.normal(size=(2, 5)), (1, abc_alphabet.id("<eos>")))]
        for fn in (loss_and_gradients, teacher_forced_accuracy):
            with pytest.raises(ScorerError, match=r"^u1: expected features shaped \(T, 3\), got \(2, 5\)$"):
                fn(m, utts)

    def test_zero_probability_names_the_first_utterance(self, abc_alphabet):
        # out_b of -1e4 at "c" makes its softmax probability underflow to 0
        m = tiny_model(abc_alphabet, seed=17)
        m.params["out_b"][abc_alphabet.id("c")] = -1e4
        rng = np.random.default_rng(20)
        utts = [make_utt(abc_alphabet, rng, "u0", 3, "a b"),
                make_utt(abc_alphabet, rng, "u1", 2, "b c"),
                make_utt(abc_alphabet, rng, "u2", 4, "c a")]
        with pytest.raises(ScorerError, match="^u1: target symbol has zero probability$"):
            loss_and_gradients(m, utts)


def _weighted_single_calls(model, utts):
    """Loss and gradients of ``utts`` rebuilt from one call per utterance,
    each weighted by its token count."""
    tokens = sum(len(u.reference) for u in utts)
    loss, grads = 0.0, {k: np.zeros_like(v) for k, v in model.params.items()}
    for utt in utts:
        w = len(utt.reference) / tokens
        l1, g1 = loss_and_gradients(model, [utt])
        loss += w * l1
        for k in grads:
            grads[k] += w * g1[k]
    return loss, grads


def _assert_close(got, want, rel=1e-12):
    """Loss to ``rel`` relative, and each parameter's gradient to ``rel`` of
    the whole gradient's norm: one parameter's own gradient can cancel to
    1e-10 of the rest, below which only rounding is left to compare."""
    loss, grads = got
    assert loss == pytest.approx(want[0], rel=rel)
    scale = math.sqrt(sum(np.linalg.norm(g) ** 2 for g in want[1].values()))
    for k in grads:
        err = np.linalg.norm(grads[k] - want[1][k])
        assert err <= rel * scale, f"{k}: {err} against {scale}"


class TestPadding:
    """A corpus is one padded batch; padding must add exactly nothing."""

    @pytest.mark.parametrize("n_heads,n_enc_layers", [(1, 1), (4, 2)])
    def test_corpus_equals_weighted_single_calls(self, abc_alphabet, n_heads, n_enc_layers):
        m = tiny_model(abc_alphabet, n_heads=n_heads, n_enc_layers=n_enc_layers, seed=40, scale=3.0)
        rng = np.random.default_rng(41)
        # u0 has the most frames, u2 the most tokens
        utts = [make_utt(abc_alphabet, rng, "u0", 9, "a b"),
                make_utt(abc_alphabet, rng, "u1", 1, "c"),
                make_utt(abc_alphabet, rng, "u2", 3, "b a c c a b")]
        _assert_close(loss_and_gradients(m, utts), _weighted_single_calls(m, utts))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_heads=st.integers(1, 3),
        n_enc_layers=st.integers(1, 2),
        shapes=st.lists(st.tuples(st.integers(1, 6), st.lists(st.integers(1, 3), max_size=5)),
                        min_size=1, max_size=4),
    )
    def test_random_lengths(self, seed, n_heads, n_enc_layers, shapes):
        alphabet = SymbolTable(["a", "b", "c", "<sos>", "<eos>"])
        m = tiny_model(alphabet, n_heads=n_heads, n_enc_layers=n_enc_layers, seed=seed, scale=3.0)
        rng = np.random.default_rng(seed)
        utts = [Utterance(f"u{i}", rng.normal(size=(frames, 3)), (*ref, alphabet.id("<eos>")))
                for i, (frames, ref) in enumerate(shapes)]
        _assert_close(loss_and_gradients(m, utts), _weighted_single_calls(m, utts))


class TestTraining:
    def test_zero_learning_rate_constant_trace(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=20)
        utt = make_utt(abc_alphabet, np.random.default_rng(21))
        trace = train_model(m, [utt], 5, lr=0.0)
        assert len(trace) == 5
        assert all(v == trace[0] for v in trace)

    def test_single_utterance_overfits(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=22)
        utt = make_utt(abc_alphabet, np.random.default_rng(23), T=5, words="a b b c")
        train_model(m, [utt], 200, lr=0.05, optimizer="adam")
        final, _ = loss_and_gradients(m, [utt])
        assert final < 0.05
        assert teacher_forced_accuracy(m, [utt]) == 1.0

    def test_deterministic_given_seed(self, abc_alphabet):
        rng = np.random.default_rng(24)
        feats = rng.normal(size=(4, 3))
        ref = (1, 2, abc_alphabet.id("<eos>"))
        traces = []
        for _ in range(2):
            m = tiny_model(abc_alphabet, seed=25)
            traces.append(train_model(m, [Utterance("u", feats, ref)], 20, lr=0.3))
        assert traces[0] == traces[1]

    def test_nan_reports_epoch(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=26)
        m.params["dec_bz"][0] = np.nan
        utt = Utterance("u", np.ones((2, 3)), (1, abc_alphabet.id("<eos>")))
        with pytest.raises(ScorerError, match="diverged at epoch 0: loss=nan"):
            train_model(m, [utt], 3)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -1.0, -1e-12])
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_rejects_bad_learning_rate(self, abc_alphabet, lr, optimizer):
        m = tiny_model(abc_alphabet, seed=29)
        before = {k: v.copy() for k, v in m.params.items()}
        utt = make_utt(abc_alphabet, np.random.default_rng(30))
        with pytest.raises(ScorerError, match="lr must be finite and non-negative"):
            train_model(m, [utt], 1, lr=lr, optimizer=optimizer)
        assert all(np.array_equal(m.params[k], v) for k, v in before.items())

    def test_non_finite_parameters_after_last_update_fail(self, abc_alphabet, monkeypatch):
        # the loss is checked before each update, so a bad last update only
        # shows in the parameters it leaves behind
        m = tiny_model(abc_alphabet, seed=31)
        utt = make_utt(abc_alphabet, np.random.default_rng(32))
        real = scorer_mod.loss_and_gradients

        def nan_gradients(model, corpus):
            loss, grads = real(model, corpus)
            grads["out_b"][:] = np.nan
            return loss, grads

        monkeypatch.setattr(scorer_mod, "loss_and_gradients", nan_gradients)
        with pytest.raises(ScorerError, match="epoch 0: non-finite parameters"):
            train_model(m, [utt], 1, lr=0.1)

    def test_bad_optimizer(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        utt = make_utt(abc_alphabet, np.random.default_rng(27))
        with pytest.raises(ScorerError, match="optimizer"):
            train_model(m, [utt], 1, optimizer="lbfgs")

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_heads=st.integers(1, 4),
        n_enc_layers=st.integers(1, 2),
        scale=st.sampled_from([0.0, 1.0, 4.0]),
        shapes=st.lists(st.tuples(st.integers(1, 6), st.lists(st.integers(1, 3), max_size=5)),
                        min_size=1, max_size=4),
    )
    def test_accuracy_matches_per_step_reference(self, seed, n_heads, n_enc_layers, scale, shapes):
        # one batched forward against one decode_step per token; a scale
        # of 0 makes every distribution uniform, so argmax ties everywhere
        alphabet = SymbolTable(["a", "b", "c", "<sos>", "<eos>"])
        m = tiny_model(alphabet, n_heads=n_heads, n_enc_layers=n_enc_layers, seed=seed, scale=scale)
        rng = np.random.default_rng(seed)
        utts = [Utterance(f"u{i}", rng.normal(size=(frames, 3)), (*ref, alphabet.id("<eos>")))
                for i, (frames, ref) in enumerate(shapes)]
        assert teacher_forced_accuracy(m, utts) == reference_teacher_forced_accuracy(m, utts)

    def test_accuracy_of_empty_corpus(self, abc_alphabet):
        with pytest.raises(ScorerError, match="corpus is empty"):
            teacher_forced_accuracy(tiny_model(abc_alphabet), [])

    def test_checkpoints_are_byte_identical(self, tmp_path):
        # two fresh trainings on a 16-utterance grapheme corpus of 1, 2, 3,
        # 1, ... words must save the very same bytes
        spell = {"go": "g o", "to": "t o", "sun": "s u n", "sea": "s e a", "ten": "t e n",
                 "net": "n e t"}
        letters = sorted({ch for sp in spell.values() for ch in sp.split()})
        alphabet = SymbolTable([*letters, "<space>", "<sos>", "<eos>"])
        rng = np.random.default_rng(1)
        names = sorted(spell)
        utts = []
        for i in range(16):
            words = [names[int(rng.integers(len(names)))] for _ in range(1 + i % 3)]
            graphemes = " <space> ".join(spell[w] for w in words).split()
            feats = np.zeros((len(graphemes), len(alphabet)))
            feats[np.arange(len(graphemes)), alphabet.encode(graphemes)] = 1.0
            utts.append(Utterance(f"utt{i:04d}", feats, (*alphabet.encode(graphemes), alphabet.id("<eos>"))))
        blobs = []
        for run in range(2):
            m = ToyLasModel.init(alphabet, len(alphabet), seed=1)
            train_model(m, utts, 5, 0.05, "adam")
            save_checkpoint(m, tmp_path / f"run{run}.ckpt")
            blobs.append((tmp_path / f"run{run}.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_loss_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace(path, [1.5, 0.25])
        assert path.read_text() == "epoch,loss\n0,1.5\n1,0.25\n"


class TestCoverage:
    def test_threshold_extremes(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=28)
        utt = make_utt(abc_alphabet, np.random.default_rng(29), T=5)
        _, state = chain(m, utt, [1])
        assert coverage_count(m, [state], -1.0) == [5]
        assert coverage_count(m, [state], 1e9) == [0]

    def test_monotone_in_prefix_length(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=30)
        utt = make_utt(abc_alphabet, np.random.default_rng(31), T=6)
        prefix = [1, 2, 1, 2]
        states = [chain(m, utt, [])[1]]
        for y in prefix:
            states.append(step_one(m, states[-1], y)[1])
        counts = coverage_count(m, states, 0.3)
        assert counts == [coverage_count(m, [state], 0.3)[0] for state in states]
        assert counts == sorted(counts)


class TestProtocolMatchesReplay:
    """Stepping a state forward must give exactly what rebuilding the
    utterance from scratch gives, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_heads=st.integers(1, 2),
        n_enc_layers=st.integers(1, 2),
        frames=st.integers(1, 5),
        prefix=st.lists(st.integers(1, 3), max_size=5),
        threshold=st.floats(0.0, 2.0),
    )
    def test_model_chain_equals_replay(self, seed, n_heads, n_enc_layers, frames, prefix, threshold):
        alphabet = SymbolTable(["a", "b", "c", "<sos>", "<eos>"])
        m = tiny_model(alphabet, n_heads=n_heads, n_enc_layers=n_enc_layers, seed=seed, scale=6.0)
        utt = Utterance("u", np.random.default_rng(seed).normal(size=(frames, 3)), (5,))
        state, prev = m.start(utt), None
        for k in range(len(prefix) + 1):
            dist, state = step_one(m, state, prev)
            assert np.array_equal(dist, replay_distribution(m, utt, prefix[:k]))
            want = replay_coverage(m, utt, (*prefix[:k], m.eos_id), threshold)
            assert coverage_count(m, [state], threshold) == [want]
            prev = prefix[k] if k < len(prefix) else None

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), steps=st.integers(1, 6), prefix=st.lists(st.integers(1, 2), max_size=5))
    def test_table_chain_equals_replay(self, seed, steps, prefix):
        alphabet = SymbolTable(["a", "b", "<sos>", "<eos>"])
        rows = np.random.default_rng(seed).random((steps, len(alphabet)))
        rows[:, [0, alphabet.id("<sos>")]] = 0.0
        ts = TableScorer(alphabet, {"u": rows / rows.sum(axis=1, keepdims=True)})
        utt = Utterance("u", np.zeros((1, 1)), (1,))
        eos = alphabet.id("<eos>")
        prefix = prefix[: ts.token_limit(utt)]
        state = ts.start(utt)
        for k, prev in enumerate((None, *prefix)):
            dist, state = step_one(ts, state, prev)
            assert np.array_equal(dist, replay_distribution(ts, utt, prefix[:k]))
            assert coverage_count(ts, [state], 0.5) == [replay_coverage(ts, utt, (*prefix[:k], eos), 0.5)]


class TestInit:
    @pytest.mark.parametrize("n_enc_layers", [1, 2])
    @pytest.mark.parametrize("n_heads", [1, 2, 3, 4])
    def test_draws_follow_the_per_head_order(self, abc_alphabet, n_heads, n_enc_layers):
        # a seed must give every parameter the numbers it had when each head
        # was stored apart: the encoder, then each head's Wq, Wk and v in
        # turn, then the embedding, the decoder cell and the output layer
        F, E, D, A, M, V = 3, 4, 5, 2, 3, len(abc_alphabet)
        m = ToyLasModel.init(abc_alphabet, F, enc_hidden=E, dec_hidden=D, att_dim=A, embed_dim=M,
                             n_heads=n_heads, n_enc_layers=n_enc_layers, seed=70)
        rng = np.random.default_rng(70)
        order = []
        for layer in range(n_enc_layers):
            d_in = F if layer == 0 else E
            order += [(f"enc{layer}_{k}", shape) for k, shape in (
                ("Wz", (d_in, E)), ("Uz", (E, E)), ("bz", (E,)), ("Wh", (d_in, E)), ("Uh", (E, E)), ("bh", (E,)))]
        head = (("Wq", (D, A)), ("Wk", (E, A)), ("v", (A,)))
        order += [((j, k), shape) for j in range(n_heads) for k, shape in head]
        d_dec = M + n_heads * E
        order += [("emb", (V, M)), ("dec_Wz", (d_dec, D)), ("dec_Uz", (D, D)), ("dec_bz", (D,)),
                  ("dec_Wh", (d_dec, D)), ("dec_Uh", (D, D)), ("dec_bh", (D,)), ("out_W", (D, V)), ("out_b", (V,))]
        want = {name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in order}
        for j in range(n_heads):
            for block, k in zip(head_weights(m, j), ("Wq", "Wk", "v")):
                np.testing.assert_array_equal(block, want[j, k])
        assert set(m.params) - {"att_Wq", "att_Wk", "att_v"} == {k for k in want if isinstance(k, str)}
        for k, value in want.items():
            if isinstance(k, str):
                np.testing.assert_array_equal(m.params[k], value)


MODEL_SIZES = ("feat_dim", "enc_hidden", "dec_hidden", "att_dim", "embed_dim", "n_heads", "n_enc_layers")


class TestConstructor:
    def test_sizes_are_read_off_the_arrays(self, abc_alphabet):
        m = ToyLasModel.init(abc_alphabet, 3, enc_hidden=4, dec_hidden=5, att_dim=2, embed_dim=6,
                             n_heads=3, n_enc_layers=2)
        back = ToyLasModel(m.alphabet, m.params)
        assert [getattr(back, name) for name in MODEL_SIZES] == [3, 4, 5, 2, 6, 3, 2]

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("dec_Uz"), "parameter keys wrong: missing ['dec_Uz'], unexpected []"),
        (lambda p: p.update(enc1_Wz=np.zeros((4, 4))), "parameter keys wrong: missing ['enc1_Uh', "),
        (lambda p: p.update(att_v=np.zeros(3)), "enc0_Wz, att_v, emb and dec_Uz must be matrices of sizes >= 1, got "
                                                "[(3, 4), (3,), (6, 3), (4, 4)]"),
        (lambda p: p.update(emb=np.zeros((6, 0))), "enc0_Wz, att_v, emb and dec_Uz must be matrices of sizes >= 1, got "
                                                  "[(3, 4), (1, 3), (6, 0), (4, 4)]"),
        (lambda p: p.update(att_v=np.zeros((2, 3))), "parameter att_Wq has shape (4, 3), expected (4, 6)"),
    ], ids=["missing-array", "half-a-layer", "vector-att_v", "zero-embed_dim", "one-head-too-many"])
    def test_arrays_that_disagree_are_refused(self, abc_alphabet, edit, message):
        params = dict(tiny_model(abc_alphabet).params)
        edit(params)
        with pytest.raises(ScorerError, match=f"^{re.escape(message)}"):
            ToyLasModel(abc_alphabet, params)


class TestCheckpoint:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_heads=st.integers(1, 4),
        n_enc_layers=st.integers(1, 2),
        sizes=st.tuples(*[st.integers(1, 5)] * 5),
        scale=st.floats(1e-3, 20.0),
        tokens=st.lists(st.integers(1, 5), max_size=4),
    )
    def test_round_trip(self, tmp_path_factory, seed, n_heads, n_enc_layers, sizes, scale, tokens):
        alphabet = SymbolTable(["a", "b", "c", "<sos>", "<eos>"])
        feat_dim, enc_hidden, dec_hidden, att_dim, embed_dim = sizes
        m = ToyLasModel.init(alphabet, feat_dim, enc_hidden=enc_hidden, dec_hidden=dec_hidden, att_dim=att_dim,
                             embed_dim=embed_dim, n_heads=n_heads, n_enc_layers=n_enc_layers, seed=seed)
        for k in m.params:
            m.params[k] *= scale
        m.params["out_b"][0] = -0.0
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert back.alphabet == m.alphabet
        assert [getattr(back, name) for name in MODEL_SIZES] == [*sizes[:3], att_dim, embed_dim, n_heads, n_enc_layers]
        assert {k: v.tobytes() for k, v in back.params.items()} == {k: v.tobytes() for k, v in m.params.items()}
        x = np.random.default_rng(seed).normal(size=(3, feat_dim))
        state, back_state = m.start(Utterance("u", x, (4,))), back.start(Utterance("u", x, (4,)))
        for y in (m.sos_id, *tokens):
            dist, state = m.decode_step(state, y)
            back_dist, back_state = back.decode_step(back_state, y)
            assert dist.tobytes() == back_dist.tobytes()
            assert back_state == state

    @pytest.mark.parametrize("name, value", [("out_b", math.nan), ("att_v", math.inf), ("emb", -math.inf)])
    def test_non_finite_parameter_is_not_saved(self, abc_alphabet, tmp_path, name, value):
        # the loader refuses such a file, so none is written
        m = tiny_model(abc_alphabet)
        m.params[name].flat[-1] = value
        path = tmp_path / "model.ckpt"
        want = f"{path}: not written: array {name} holds a value that is not a finite number"
        with pytest.raises(ScorerError, match=f"^{re.escape(want)}$"):
            save_checkpoint(m, path)
        assert not path.exists()

    def test_repeated_array_is_refused(self, abc_alphabet, tmp_path):
        # an object that lists a key twice must not load its later copy
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(abc_alphabet), path)
        text = path.read_text()
        path.write_text(text.replace('"params": {', f'"params": {{"out_b": {[7.0] * len(abc_alphabet)}, ', 1))
        with pytest.raises(ScorerError, match=f"^{re.escape(str(path))}: key 'out_b' is listed twice$"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        # the bytes a file of the old binary format starts with are not JSON
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"FDSC" + b"\x00" * 16)
        with pytest.raises(ScorerError, match=f"^{re.escape(str(path))}: not a JSON checkpoint \\(Expecting value"):
            load_checkpoint(path)

    def test_trailing_bytes(self, abc_alphabet, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(abc_alphabet), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ScorerError, match=f"^{re.escape(str(path))}: not a JSON checkpoint \\(Extra data"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(version=2), "unsupported checkpoint version 2 (this build reads version 3)"),
        (lambda d: d.pop("version"), "unsupported checkpoint version None (this build reads version 3)"),
        (lambda d: d.pop("params"), "checkpoint keys are ['alphabet', 'version'], expected alphabet"),
        (lambda d: d.update(seed=0), "checkpoint keys are ['alphabet', 'params', 'seed', 'version'], expected"),
        (lambda d: d.update(alphabet="abc"), "expected a list of strings under 'alphabet' and an object under"),
        (lambda d: d["alphabet"].append(7), "expected a list of strings under 'alphabet' and an object under"),
        (lambda d: d["alphabet"].pop(0), "alphabet must list <eps> first and every symbol once"),
        (lambda d: d["alphabet"].insert(2, "<eps>"), "alphabet must list <eps> first and every symbol once"),
        (lambda d: d.update(params=[]), "expected a list of strings under 'alphabet' and an object under"),
        (lambda d: d["params"]["out_b"].pop(), "parameter out_b has shape (5,), expected (6,)"),
        (lambda d: d["params"]["out_W"][0].pop(), "array out_W is ragged or holds a value that is not a finite"),
        (lambda d: d["params"]["out_b"].__setitem__(0, "0.5"), "array out_b is ragged or holds a value that"),
        (lambda d: d["params"]["out_b"].__setitem__(0, True), "array out_b is ragged or holds a value that"),
        (lambda d: d["params"]["out_b"].__setitem__(0, None), "array out_b is ragged or holds a value that"),
        (lambda d: d["params"]["out_b"].__setitem__(0, math.inf), "array out_b is ragged or holds a value that"),
        (lambda d: d["params"]["out_b"].__setitem__(0, 10**400), "int too large to convert to float"),
    ], ids=["version-2", "no-version", "no-params", "extra-key", "alphabet-string", "alphabet-number",
            "alphabet-without-eps", "alphabet-with-two-eps", "params-list", "short-array", "ragged-array",
            "string-value", "boolean-value", "null-value", "infinite-value", "huge-integer"])
    def test_malformed_document_is_refused(self, abc_alphabet, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(abc_alphabet), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ScorerError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_checkpoint(path)
