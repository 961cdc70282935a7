from __future__ import annotations

import math
import random

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

from oracles import replay_coverage, replay_distribution


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


def chain(scorer, utt, prefix):
    """Step a scorer from its start state through ``prefix``; returns the
    distribution after the last step and the state that follows it."""
    dist, state = step_distributions(scorer, scorer.start(utt), None)
    for y in prefix:
        dist, state = step_distributions(scorer, state, y)
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
            step_distributions(ts, state, 1)

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
        assert coverage_count(ts, state, 0.5) == 3


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
        Wq = model.params[f"att{j}_Wq"].tolist()
        Wk = model.params[f"att{j}_Wk"].tolist()
        v = model.params[f"att{j}_v"].tolist()
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

    def test_matches_straight_line_recurrence(self, abc_alphabet):
        rng = np.random.default_rng(5)
        for layers in (1, 2):
            m = tiny_model(abc_alphabet, n_enc_layers=layers, seed=9, scale=3.0)
            x = rng.normal(size=(5, 3))
            got = m.encode(x)
            want = encode_oracle(m, x)
            np.testing.assert_allclose(got, np.array(want), atol=1e-10)


class TestAttend:
    def test_single_frame_attends_fully(self, abc_alphabet):
        m = tiny_model(abc_alphabet, n_heads=2)
        h_enc = np.random.default_rng(1).normal(size=(1, 4))
        contexts, weights = m.attend(h_enc, np.zeros(4))
        np.testing.assert_allclose(weights, np.ones((2, 1)))
        for j in range(2):
            np.testing.assert_allclose(contexts[j], h_enc[0])

    def test_identical_frames_uniform(self, abc_alphabet):
        m = tiny_model(abc_alphabet)
        h_enc = np.tile(np.random.default_rng(2).normal(size=4), (5, 1))
        _, weights = m.attend(h_enc, np.ones(4))
        np.testing.assert_allclose(weights, np.full((1, 5), 0.2))

    def test_matches_straight_line_formula(self, abc_alphabet):
        rng = np.random.default_rng(3)
        m = tiny_model(abc_alphabet, n_heads=3, seed=4, scale=4.0)
        h_enc = rng.normal(size=(5, 4))
        s = rng.normal(size=4)
        contexts, weights = m.attend(h_enc, s)
        want_c, want_w = attend_oracle(m, h_enc.tolist(), s.tolist())
        np.testing.assert_allclose(contexts, np.array(want_c), atol=1e-10)
        np.testing.assert_allclose(weights, np.array(want_w), atol=1e-10)

    def test_duplicated_heads_agree(self, abc_alphabet):
        m = tiny_model(abc_alphabet, n_heads=4, seed=6)
        for j in range(1, 4):
            for part in ("Wq", "Wk", "v"):
                m.params[f"att{j}_{part}"] = m.params[f"att0_{part}"].copy()
        rng = np.random.default_rng(7)
        contexts, weights = m.attend(rng.normal(size=(6, 4)), rng.normal(size=4))
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
        m = ToyLasModel.init(abc_alphabet, 3, enc_hidden=4, dec_hidden=4, att_dim=3,
                             embed_dim=3, max_prefix=2)
        utt = make_utt(abc_alphabet, np.random.default_rng(14))
        assert m.token_limit(utt) == 2
        _, state = chain(m, utt, [1, 1])
        with pytest.raises(ScorerError, match="max_prefix"):
            step_distributions(m, state, 1)

    def test_teacher_forced_nll_recomputes(self, abc_alphabet):
        # the training loss must equal the probabilities of a chain of
        # protocol steps
        m = tiny_model(abc_alphabet, seed=15, scale=2.0)
        rng = np.random.default_rng(16)
        utts = [make_utt(abc_alphabet, rng, "u0", 4, "a b"),
                make_utt(abc_alphabet, rng, "u1", 3, "c c a")]
        loss, _ = loss_and_gradients(m, utts)
        total, tokens = 0.0, 0
        for utt in utts:
            state, prev = m.start(utt), None
            for y in utt.reference:
                dist, state = step_distributions(m, state, prev)
                total += -math.log(dist[y])
                tokens += 1
                prev = y
        assert loss == pytest.approx(total / tokens, abs=1e-12)


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
        bad = Utterance("u", np.full((2, 3), np.nan), (1, abc_alphabet.id("<eos>")))
        with pytest.raises(ScorerError, match="epoch 0"):
            train_model(m, [bad], 3)

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

    def test_loss_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace(path, [1.5, 0.25])
        assert path.read_text() == "epoch,loss\n0,1.5\n1,0.25\n"


class TestCoverage:
    def test_threshold_extremes(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=28)
        utt = make_utt(abc_alphabet, np.random.default_rng(29), T=5)
        _, state = chain(m, utt, [1])
        assert coverage_count(m, state, -1.0) == 5
        assert coverage_count(m, state, 1e9) == 0

    def test_monotone_in_prefix_length(self, abc_alphabet):
        m = tiny_model(abc_alphabet, seed=30)
        utt = make_utt(abc_alphabet, np.random.default_rng(31), T=6)
        prefix = [1, 2, 1, 2]
        counts = [coverage_count(m, chain(m, utt, prefix[:k])[1], 0.3) for k in range(5)]
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
            dist, state = step_distributions(m, state, prev)
            assert np.array_equal(dist, replay_distribution(m, utt, prefix[:k]))
            want = replay_coverage(m, utt, (*prefix[:k], m.eos_id), threshold)
            assert coverage_count(m, state, threshold) == want
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
            dist, state = step_distributions(ts, state, prev)
            assert np.array_equal(dist, replay_distribution(ts, utt, prefix[:k]))
            assert coverage_count(ts, state, 0.5) == replay_coverage(ts, utt, (*prefix[:k], eos), 0.5)


class TestCheckpoint:
    def test_round_trip(self, abc_alphabet, tmp_path):
        m = tiny_model(abc_alphabet, n_heads=2, n_enc_layers=2, seed=32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert back.alphabet == m.alphabet
        assert back.n_heads == m.n_heads and back.n_enc_layers == m.n_enc_layers
        assert set(back.params) == set(m.params)
        for k, v in m.params.items():
            np.testing.assert_array_equal(back.params[k], v)
        utt = make_utt(abc_alphabet, np.random.default_rng(33))
        np.testing.assert_array_equal(chain(back, utt, [1])[0], chain(m, utt, [1])[0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ScorerError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes(self, abc_alphabet, tmp_path):
        m = tiny_model(abc_alphabet)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ScorerError, match="trailing"):
            load_checkpoint(path)
