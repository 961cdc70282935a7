from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from fusedec.ngram import (
    NGramError,
    lm_to_fst,
    read_arpa,
    score_sequence,
    train_ngram,
    write_arpa,
)
from fusedec.fst import output_weights
from oracles import absdisc_conditional, mle_conditional, ngram_counts_bruteforce

LN = math.log


def random_corpus(rng: random.Random, words=("a", "b", "c", "d"), max_sents=8, max_len=6):
    n = rng.randint(1, max_sents)
    return [
        " ".join(rng.choice(words) for _ in range(rng.randint(0, max_len)))
        for _ in range(n)
    ]


def ids_of(lm, *syms):
    return tuple(lm.vocab.id(s) for s in syms)


class TestValidation:
    def test_order_out_of_range(self):
        for bad in (0, 5, -1, 2.0):
            with pytest.raises(NGramError, match="order"):
                train_ngram(["a"], bad)

    def test_unknown_smoothing(self):
        with pytest.raises(NGramError, match="smoothing"):
            train_ngram(["a"], 2, smoothing="kneser")

    def test_discount_bounds(self):
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(NGramError, match="discount"):
                train_ngram(["a"], 2, discount=bad)

    def test_empty_corpus(self):
        with pytest.raises(NGramError, match="empty"):
            train_ngram([], 2)

    def test_reserved_symbols_rejected(self):
        for bad in ("x </s>", "<s> x", "<unk> y"):
            with pytest.raises(NGramError, match="reserved"):
                train_ngram([bad], 2)

    def test_score_rejects_sentence_markers(self):
        lm = train_ngram(["a b"], 2)
        with pytest.raises(NGramError, match="reserved"):
            score_sequence(lm, ["a", "</s>"])


class TestMleHandCounts:
    def test_bigram_fixture(self):
        lm = train_ngram(["a b", "a c"], 2, smoothing="mle")
        a, b = ids_of(lm, "a", "b")
        assert lm.conditional_logp((lm.bos_id,), a) == pytest.approx(LN(1.0))
        assert lm.conditional_logp((a,), b) == pytest.approx(LN(0.5))
        assert lm.conditional_logp((b,), lm.eos_id) == pytest.approx(LN(1.0))
        # unigram level: a:2 b:1 c:1 </s>:2 out of 6
        assert lm.conditional_logp((), a) == pytest.approx(LN(2 / 6))
        assert score_sequence(lm, ["a", "b"]) == pytest.approx(LN(0.5))

    def test_unigram_fixture(self):
        lm = train_ngram(["a"], 1, smoothing="mle")
        a = lm.vocab.id("a")
        assert lm.conditional_logp((), a) == pytest.approx(LN(0.5))
        assert lm.conditional_logp((), lm.eos_id) == pytest.approx(LN(0.5))
        assert score_sequence(lm, ["a"]) == pytest.approx(LN(0.25))
        assert lm.backoffs == {}

    def test_unseen_gram_is_impossible(self):
        lm = train_ngram(["a b", "a c"], 2, smoothing="mle")
        a, b = ids_of(lm, "a", "b")
        # context (b) was observed (b </s>), so an unseen continuation is hard zero
        assert lm.conditional_logp((b,), a) == -math.inf
        assert score_sequence(lm, ["a", "b", "a"]) == -math.inf

    def test_unseen_context_shortens_freely(self):
        lm = train_ngram(["a b", "a c"], 2, smoothing="mle")
        a, b, c = ids_of(lm, "a", "b", "c")
        # (c, b) never appears as a bigram context pairing; query trims to (b)
        assert lm.conditional_logp((c, b), lm.eos_id) == lm.conditional_logp((b,), lm.eos_id)

    def test_context_trimmed_to_model_order(self):
        lm = train_ngram(["a b", "a c"], 2, smoothing="mle")
        a, b = ids_of(lm, "a", "b")
        assert lm.conditional_logp((b, b, b, a), b) == lm.conditional_logp((a,), b)

    def test_more_evidence_never_hurts(self):
        rng = random.Random(13)
        for _ in range(15):
            corpus = random_corpus(rng)
            target = rng.choice(corpus).split()
            order = rng.randint(1, 3)
            before = score_sequence(train_ngram(corpus, order, smoothing="mle"), target)
            boosted = corpus + [" ".join(target)] * rng.randint(1, 4)
            after = score_sequence(train_ngram(boosted, order, smoothing="mle"), target)
            assert after >= before - 1e-12

    def test_matches_fraction_oracle_on_observed_grams(self):
        rng = random.Random(11)
        for _ in range(30):
            corpus = random_corpus(rng)
            order = rng.randint(1, 4)
            lm = train_ngram(corpus, order, smoothing="mle")
            counts = ngram_counts_bruteforce([s.split() for s in corpus], order)
            for gram_syms, want in (
                (g, mle_conditional(counts, g)) for g in counts
            ):
                gram = tuple(lm.vocab.id(s) for s in gram_syms)
                got = lm.conditional_logp(gram[:-1], gram[-1])
                assert got == pytest.approx(math.log(want), abs=1e-12)


class TestAbsdiscHandCounts:
    def test_bigram_fixture_fractions(self):
        lm = train_ngram(["a b", "a c"], 2, smoothing="absdisc", discount=0.4)
        a, b = ids_of(lm, "a", "b")
        # events {a,b,c,</s>}; unigram total 6, four distinct
        assert lm.conditional_logp((), a) == pytest.approx(LN(1 / 3), abs=1e-12)
        assert lm.conditional_logp((), b) == pytest.approx(LN(1 / 6), abs=1e-12)
        # ctx (a): (1-0.4)/2 + 0.4 * 1/6
        assert lm.conditional_logp((a,), b) == pytest.approx(LN(Fraction(11, 30)), abs=1e-12)
        # ctx (<s>): (2-0.4)/2 + 0.2 * 1/3
        assert lm.conditional_logp((lm.bos_id,), a) == pytest.approx(LN(Fraction(13, 15)), abs=1e-12)
        assert lm.backoffs[(a,)] == pytest.approx(LN(0.4), abs=1e-12)
        # unseen continuation of a seen context goes through the backoff
        assert lm.conditional_logp((a,), a) == pytest.approx(LN(0.4) + LN(1 / 3), abs=1e-12)

    def test_matches_recursive_fraction_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            corpus = random_corpus(rng)
            order = rng.randint(1, 4)
            lm = train_ngram(corpus, order, smoothing="absdisc", discount=0.4)
            counts = ngram_counts_bruteforce([s.split() for s in corpus], order)
            n_events = len(lm.vocab) - 2
            events = [lm.vocab.sym(i) for i in range(1, len(lm.vocab)) if i != lm.bos_id]
            in_vocab = [w for w in events if w != "</s>"]
            ctx_pool = [g[:-1] for g in counts if len(g) > 1] + [()]
            # unseen-context probes, built from words the model has ids for
            if in_vocab:
                ctx_pool += [
                    tuple(rng.choice(in_vocab) for _ in range(rng.randint(1, 3)))
                    for _ in range(4)
                ]
            for _ in range(40):
                ctx_syms = rng.choice(ctx_pool)[: order - 1] if order > 1 else ()
                w = rng.choice(events)
                want = absdisc_conditional(counts, Fraction(2, 5), n_events, (*ctx_syms, w))
                got = lm.conditional_logp(
                    tuple(lm.vocab.id(s) for s in ctx_syms), lm.vocab.id(w)
                )
                assert got == pytest.approx(math.log(want), abs=1e-10)

    def test_distributions_normalize_everywhere(self):
        rng = random.Random(37)
        for _ in range(20):
            corpus = random_corpus(rng)
            order = rng.randint(1, 4)
            smoothing = rng.choice(["mle", "absdisc"])
            lm = train_ngram(corpus, order, smoothing=smoothing)
            events = [i for i in range(1, len(lm.vocab)) if i != lm.bos_id]
            contexts = {(), (lm.bos_id,)} | set(lm.contexts)
            for _ in range(5):
                contexts.add(tuple(rng.choice(events) for _ in range(rng.randint(1, 3))))
            for ctx in contexts:
                mass = sum(math.exp(lm.conditional_logp(ctx, w)) for w in events)
                assert mass == pytest.approx(1.0, abs=1e-9), (ctx, smoothing)

    def test_oov_maps_to_unk_only_when_trained(self, tmp_path):
        plain = train_ngram(["a a b", "a c c"], 2, smoothing="absdisc")
        assert score_sequence(plain, ["a", "zzz"]) == -math.inf
        # a model whose ARPA file lists <unk> scores an unseen word as <unk>
        path = tmp_path / "unk.arpa"
        path.write_text(
            "\\data\\\nngram 1=4\nngram 2=2\n\n\\1-grams:\n"
            "-99\t<s>\t-0.2\n-0.5\t</s>\n-0.6\ta\t-0.3\n-0.7\t<unk>\n\n"
            "\\2-grams:\n-0.1\t<s> a\n-0.4\ta <unk>\n\n\\end\\\n",
            encoding="utf-8",
        )
        with_unk = read_arpa(path)
        got = score_sequence(with_unk, ["a", "zzz"])
        assert math.isfinite(got)
        assert got == score_sequence(with_unk, ["a", "<unk>"])
        assert score_sequence(with_unk, ["zzz"]) == score_sequence(with_unk, ["<unk>"])


class TestFstExport:
    def test_structure_bigram(self):
        lm = train_ngram(["a b", "a c"], 2, smoothing="absdisc")
        g = lm_to_fst(lm)
        assert g.finals == {g.num_states - 1: 0.0}
        assert g.isyms == lm.vocab and g.osyms == lm.vocab
        eps_in = [arc for arc in g.arcs if arc.ilabel == 0]
        assert all(arc.olabel == 0 for arc in eps_in)
        # five contexts: (), (<s>), (a), (b), (c); plus the final state
        assert g.num_states == 6

    def test_unigram_model_topology(self):
        lm = train_ngram(["a", "b"], 1, smoothing="mle")
        g = lm_to_fst(lm)
        assert g.num_states == 2
        assert g.start == 0
        a = lm.vocab.id("a")
        self_loops = [arc for arc in g.arcs if arc.ilabel == a]
        assert self_loops and all(arc.dst == 0 for arc in self_loops)

    def test_empty_sentence_accepted(self):
        lm = train_ngram(["", "a"], 2, smoothing="mle")
        g = lm_to_fst(lm)
        assert output_weights(g, []) == {(): pytest.approx(-score_sequence(lm, []))}

    def test_path_weight_equals_score_mle(self):
        # no backoff arcs, so every sentence has at most one route
        rng = random.Random(51)
        for _ in range(25):
            self._agreement(rng, "mle", rng.randint(1, 4), exact=True)

    def test_path_weight_equals_score_absdisc_low_order(self):
        # direct and backed-off arcs re-enter the same state at order <= 2,
        # so the tropical min reproduces the query rule exactly
        rng = random.Random(52)
        checked = 0
        while checked < 100:
            checked += self._agreement(rng, "absdisc", rng.randint(1, 2), exact=True)

    def test_path_weight_bounds_score_absdisc_high_order(self):
        # at higher orders an early backoff may find a cheaper route; the
        # best path can only undercut the query rule, never exceed it
        rng = random.Random(53)
        for _ in range(20):
            self._agreement(rng, "absdisc", rng.randint(3, 4), exact=False)

    @staticmethod
    def _agreement(rng: random.Random, smoothing: str, order: int, exact: bool) -> int:
        words = ("a", "b", "c", "d")
        corpus = random_corpus(rng, words=words)
        lm = train_ngram(corpus, order, smoothing=smoothing)
        g = lm_to_fst(lm)
        probes = [s.split() for s in corpus[:3]]
        probes += [[rng.choice(words) for _ in range(rng.randint(0, 5))] for _ in range(6)]
        compared = 0
        for sent in probes:
            if any(lm.vocab.find(w) is None for w in sent):
                continue
            score = score_sequence(lm, sent)
            # an acceptor writes what it reads: one output string at most
            weights = output_weights(g, sent)
            assert set(weights) <= {lm.vocab.encode(sent)}
            weight = weights.get(lm.vocab.encode(sent))
            compared += 1
            if score == -math.inf:
                assert weight is None
            elif exact:
                assert weight == pytest.approx(-score, abs=1e-9)
            else:
                assert weight <= -score + 1e-9
        return compared

    @pytest.mark.parametrize("bos_backoff, named", [("0.3", "'<s>' has log10 backoff 0.3"),
                                                    ("-0.3", "'a' has log10 backoff 0.2")])
    def test_backoff_weight_above_one_is_refused(self, tmp_path, bos_backoff, named):
        # log10 backoff > 0 would need a negative arc; clamped to 0 instead,
        # "b" cost 2.763 against -score_sequence 2.072 with both positive
        path = tmp_path / "lm.arpa"
        path.write_text(
            "\\data\\\nngram 1=4\nngram 2=2\n\n\\1-grams:\n"
            f"-99\t<s>\t{bos_backoff}\n-0.5\t</s>\n-0.6\ta\t0.2\n-0.7\tb\n\n"
            "\\2-grams:\n-0.1\t<s> a\n-0.2\ta </s>\n\n\\end\\\n",
            encoding="utf-8",
        )
        lm = read_arpa(path)
        assert math.isfinite(score_sequence(lm, ["b", "a"]))
        with pytest.raises(NGramError, match=f"^context {named}: "):
            lm_to_fst(lm)

    def test_backoff_of_a_context_without_continuations_is_never_charged(self, tmp_path):
        # "a" lists a backoff weight but no bigram starts with it, as when
        # every continuation is at the -99 floor; lm_to_fst used to fail
        # with a KeyError on the missing context state
        path = tmp_path / "lm.arpa"
        path.write_text(
            "\\data\\\nngram 1=4\nngram 2=3\n\n\\1-grams:\n"
            "-99\t<s>\t-0.2\n-0.5\t</s>\n-0.6\ta\t-0.4\n-0.7\tb\t-0.1\n\n"
            "\\2-grams:\n-0.1\t<s> a\n-99\ta b\n-0.2\tb </s>\n\n\\end\\\n",
            encoding="utf-8",
        )
        lm = read_arpa(path)
        g = lm_to_fst(lm)
        for sent in (["a"], ["a", "b"], ["b", "a", "a"], []):
            weights = output_weights(g, sent)
            assert weights == {lm.vocab.encode(sent): pytest.approx(-score_sequence(lm, sent), abs=1e-9)}

    def test_direct_arc_never_beaten_by_backoff(self):
        # the tropical min only matches the query rule if stored grams are
        # at least as probable as their own backoff route
        rng = random.Random(67)
        for _ in range(20):
            lm = train_ngram(random_corpus(rng), rng.randint(2, 4), smoothing="absdisc")
            for gram, lnp in lm.probs.items():
                if len(gram) == 1 or gram[-1] == lm.bos_id:
                    continue
                ctx = gram[:-1]
                bow = lm.backoffs.get(ctx)
                if bow is None:
                    continue
                via_backoff = bow + lm.conditional_logp(gram[1:-1], gram[-1])
                assert lnp >= via_backoff - 1e-12


class TestArpaRoundTrip:
    def test_tables_and_scores_survive(self, tmp_path):
        rng = random.Random(71)
        for i in range(12):
            corpus = random_corpus(rng)
            order = rng.randint(1, 4)
            smoothing = rng.choice(["mle", "absdisc"])
            lm = train_ngram(corpus, order, smoothing=smoothing)
            path = tmp_path / f"model{i}.arpa"
            write_arpa(lm, path)
            back = read_arpa(path)
            assert back.order == lm.order
            assert back.vocab == lm.vocab
            assert set(back.probs) == set(lm.probs)
            assert set(back.backoffs) == set(lm.backoffs)
            for gram, lnp in lm.probs.items():
                assert back.probs[gram] == pytest.approx(lnp, abs=1e-9)
            probes = [s.split() for s in corpus] + [["a", "d", "d"], []]
            for sent in probes:
                a, b = score_sequence(lm, sent), score_sequence(back, sent)
                if a == -math.inf:
                    assert b == -math.inf
                else:
                    assert b == pytest.approx(a, abs=1e-9)

    def test_start_symbol_placeholder(self, tmp_path):
        lm = train_ngram(["a b"], 2, smoothing="mle")
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        lines = path.read_text().splitlines()
        assert any(line.endswith("\t<s>") and line.startswith("-99") for line in lines)
        assert "\\data\\" == lines[0]
        assert lines[-1] == "\\end\\"

    def test_declared_count_mismatch(self, tmp_path):
        lm = train_ngram(["a b"], 2, smoothing="absdisc")
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        text = path.read_text().replace("ngram 1=", "ngram 1=9")
        bad = tmp_path / "bad.arpa"
        bad.write_text(text)
        with pytest.raises(NGramError, match="declared"):
            read_arpa(bad)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\nnot a number here at all\n\n\\end\\\n")
        with pytest.raises(NGramError, match="line"):
            read_arpa(path)

    @pytest.mark.parametrize(
        "edit, lineno",
        [
            (("ngram 1=", "ngram 1"), 2),
            (("ngram 1=", "ngram x="), 2),
            (("ngram 1=", "ngram 1=2=3"), 2),
            (("ngram 1=", "ngrams 1="), 2),
            (("\\1-grams:", "\\a-grams:"), 5),
            (("\\2-grams:", "\\-grams:"), 11),
        ],
        ids=["no-equals", "bad-order", "two-equals", "bad-keyword", "letter-section", "empty-section"],
    )
    def test_malformed_header_names_file_and_line(self, tmp_path, edit, lineno):
        lm = train_ngram(["a b"], 2, smoothing="absdisc")
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        text = path.read_text()
        assert text.splitlines()[lineno - 1].startswith(edit[0])
        path.write_text(text.replace(edit[0], edit[1], 1))
        with pytest.raises(NGramError, match=rf"^{re.escape(str(path))}: line {lineno}: expected"):
            read_arpa(path)

    def test_repeated_section_names_file_and_line(self, tmp_path):
        lm = train_ngram([["I", "am"]] * 3 + [["eye"]], 2, smoothing="absdisc")
        path = tmp_path / "m.arpa"
        write_arpa(lm, path)
        # Without a declared bigram count, nothing else notices the split.
        lines = [line for line in path.read_text().splitlines() if not line.startswith("ngram 2=")]
        first = lines.index("\\2-grams:") + 1
        lines[first + 1:first + 1] = ["", "\\2-grams:"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NGramError, match=rf"^{re.escape(str(path))}: line {first + 3}: repeated"):
            read_arpa(path)

    @pytest.mark.parametrize(
        "grams, lineno",
        [(["-0.5\t<eps>"], 7), (["-0.5\ta", "\n\\2-grams:", "-0.2\ta <eps>"], 10)],
        ids=["unigram", "bigram"],
    )
    def test_epsilon_is_reserved(self, tmp_path, grams, lineno):
        # <eps> is id 0 in every table: read as a word it becomes an epsilon arc
        path = tmp_path / "m.arpa"
        body = "\n".join(["-99\t<s>", "-0.5\t</s>", *grams])
        path.write_text(f"\\data\\\nngram 1=3\n\n\\1-grams:\n{body}\n\n\\end\\\n")
        with pytest.raises(NGramError, match=rf"^{re.escape(str(path))}: line {lineno}: <eps> is reserved"):
            read_arpa(path)

    @pytest.mark.parametrize(
        "grams, first, lineno",
        [
            (["-0.5\ta", "-0.7\ta"], 6, 7),
            (["-0.5\ta", "\n\\2-grams:", "-0.1\ta a", "-0.9\ta a"], 9, 10),
        ],
        ids=["unigram", "bigram"],
    )
    def test_repeated_gram_names_both_lines(self, tmp_path, grams, first, lineno):
        # a repeated unigram used to fail in SymbolTable naming no file, and a
        # repeated bigram was read with the later line silently winning
        path = tmp_path / "m.arpa"
        body = "\n".join(["-99\t<s>", "-0.5\t</s>", *grams])
        path.write_text(f"\\data\\\n\n\\1-grams:\n{body}\n\n\\end\\\n")
        gram = grams[-1].split("\t")[1]
        with pytest.raises(
            NGramError,
            match=rf"^{re.escape(str(path))}: line {lineno}: repeated gram '{gram}' \(first on line {first}\)$",
        ):
            read_arpa(path)

    def test_word_with_no_unigram_names_the_line(self, tmp_path):
        path = tmp_path / "m.arpa"
        body = "\n".join(["-99\t<s>", "-0.5\t</s>", "-0.5\ta", "", "\\2-grams:", "-0.1\ta a", "-0.2\ta b"])
        path.write_text(f"\\data\\\n\n\\1-grams:\n{body}\n\n\\end\\\n")
        assert path.read_text().splitlines()[9] == "-0.2\ta b"
        with pytest.raises(
            NGramError, match=rf"^{re.escape(str(path))}: line 10: a b uses a word with no unigram$"
        ):
            read_arpa(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("field", [0, 2], ids=["probability", "backoff"])
    def test_non_finite_value_names_the_line(self, tmp_path, value, field):
        # a +inf log10 probability made synth sample from NaN probabilities,
        # and a NaN one was dropped as if it were absent
        path = tmp_path / "m.arpa"
        fields = ["-0.5", "a", "-0.3"]
        fields[field] = value
        body = "\n".join(["-99\t<s>", "-0.5\t</s>", "\t".join(fields)])
        path.write_text(f"\\data\\\n\n\\1-grams:\n{body}\n\n\\end\\\n")
        with pytest.raises(NGramError, match=rf"^{re.escape(str(path))}: line 6: a log10 value must be finite or -inf$"):
            read_arpa(path)

    def test_positive_log10_probability_names_the_line(self, tmp_path):
        # p > 1 was read, and lm_to_fst clamped its arc cost to 0: the fused
        # cost of 'a' then disagreed with score_sequence
        path = tmp_path / "m.arpa"
        body = "\n".join(["-99\t<s>", "-0.5\t</s>", "0.5\ta"])
        path.write_text(f"\\data\\\n\n\\1-grams:\n{body}\n\n\\end\\\n")
        with pytest.raises(
            NGramError, match=rf"^{re.escape(str(path))}: line 6: a log10 probability must not be above 0$"
        ):
            read_arpa(path)
        # probability 1 (as MLE writes it) and a positive backoff weight stay valid
        body = "\n".join(["-99\t<s>\t0.25", "-0.5\t</s>", "0\ta"])
        path.write_text(f"\\data\\\n\n\\1-grams:\n{body}\n\n\\end\\\n")
        lm = read_arpa(path)
        assert lm.probs[(lm.vocab.id("a"),)] == 0.0 and lm.backoffs[(lm.vocab.id("<s>"),)] > 0.0

    def test_missing_sentence_end(self, tmp_path):
        path = tmp_path / "m.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-99\t<s>\n\n\\end\\\n")
        with pytest.raises(NGramError, match="</s>"):
            read_arpa(path)
