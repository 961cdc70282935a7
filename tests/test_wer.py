import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import wer as wer_mod
from fusedec.wer import WerBreakdown, align_wer, corpus_wer

from oracles import align_counts_bruteforce


def breakdown(ref: str, hyp: str) -> WerBreakdown:
    return align_wer(ref.split(), hyp.split())


class TestBreakdownType:
    def test_wer_arithmetic(self):
        b = WerBreakdown(1, 2, 3, 12)
        assert b.errors == 6
        assert b.wer == pytest.approx(0.5)

    def test_empty_reference_rates(self):
        assert WerBreakdown(0, 0, 0, 0).wer == 0.0
        assert math.isinf(WerBreakdown(0, 2, 0, 0).wer)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            WerBreakdown(-1, 0, 0, 3)


class TestAlignWer:
    def test_identity(self):
        b = breakdown("the cat sat", "the cat sat")
        assert (b.deletions, b.insertions, b.substitutions) == (0, 0, 0)
        assert b.wer == 0.0

    def test_single_deletion(self):
        b = breakdown("the cat sat", "the cat")
        assert (b.deletions, b.insertions, b.substitutions) == (1, 0, 0)
        assert b.wer == pytest.approx(1 / 3)

    def test_insertion_plus_substitution(self):
        b = breakdown("a b c", "a x c d")
        assert (b.deletions, b.insertions, b.substitutions) == (0, 1, 1)
        assert b.wer == pytest.approx(2 / 3)

    def test_prefers_substitutions_over_del_ins_pairs(self):
        # 'a b' vs 'b a' aligns either as two substitutions or as a
        # deletion plus an insertion around a matched b; both cost 2.
        b = breakdown("a b", "b a")
        assert (b.deletions, b.insertions, b.substitutions) == (0, 0, 2)

    def test_empty_hypothesis_is_all_deletions(self):
        b = breakdown("x y z", "")
        assert (b.deletions, b.insertions, b.substitutions) == (3, 0, 0)
        assert b.wer == 1.0

    def test_empty_reference_is_all_insertions(self):
        b = breakdown("", "x y")
        assert (b.deletions, b.insertions, b.substitutions) == (0, 2, 0)

    def test_both_empty(self):
        b = align_wer([], [])
        assert b.errors == 0
        assert b.ref_count == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bruteforce_alignment(self, seed):
        rng = np.random.default_rng(seed)
        words = ["a", "b", "c", "d"]
        ref = [words[k] for k in rng.integers(0, 4, rng.integers(0, 7))]
        hyp = [words[k] for k in rng.integers(0, 4, rng.integers(0, 7))]
        b = align_wer(ref, hyp)
        assert (b.deletions, b.insertions, b.substitutions) == align_counts_bruteforce(ref, hyp)
        assert b.ref_count == len(ref)

    @pytest.mark.parametrize("seed", range(15))
    def test_swapping_arguments_swaps_del_and_ins(self, seed):
        rng = np.random.default_rng(100 + seed)
        words = ["a", "b", "c"]
        x = [words[k] for k in rng.integers(0, 3, rng.integers(0, 6))]
        y = [words[k] for k in rng.integers(0, 3, rng.integers(0, 6))]
        fwd, rev = align_wer(x, y), align_wer(y, x)
        assert fwd.errors == rev.errors
        assert fwd.deletions == rev.insertions
        assert fwd.insertions == rev.deletions
        assert fwd.substitutions == rev.substitutions

    @pytest.mark.parametrize("seed", range(15))
    def test_triangle_inequality_on_edit_counts(self, seed):
        rng = np.random.default_rng(200 + seed)
        words = ["a", "b", "c"]
        seqs = [
            [words[k] for k in rng.integers(0, 3, rng.integers(0, 6))] for _ in range(3)
        ]
        ab = align_wer(seqs[0], seqs[1]).errors
        bc = align_wer(seqs[1], seqs[2]).errors
        ac = align_wer(seqs[0], seqs[2]).errors
        assert ac <= ab + bc


class TestCorpusWer:
    def test_single_pair_equals_align(self):
        pair = ("a b c".split(), "a x c d".split())
        assert corpus_wer([pair]) == align_wer(*pair)

    def test_homogeneous_pairs_keep_the_rate(self):
        pair = ("the cat sat".split(), "the cat".split())
        assert corpus_wer([pair, pair]).wer == pytest.approx(1 / 3)

    def test_counts_sum_before_division(self):
        perfect = ("a b c".split(), "a b c".split())
        wrong = ("a b c".split(), "x y z".split())
        b = corpus_wer([perfect, wrong])
        assert b.substitutions == 3
        assert b.ref_count == 6
        assert b.wer == pytest.approx(0.5)

    def test_empty_hypotheses_give_total_deletion_rate(self):
        pairs = [("a b c".split(), []), ("d e f".split(), [])]
        b = corpus_wer(pairs)
        assert b.deletions == 6
        assert b.wer == 1.0

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="at least one"):
            corpus_wer([])

    @settings(max_examples=60, deadline=None)
    @given(
        distinct=st.lists(
            st.tuples(*[st.lists(st.sampled_from(["a", "b", "c"]), max_size=5)] * 2), min_size=1, max_size=4
        ),
        picks=st.lists(st.integers(0, 99), min_size=1, max_size=30),
        as_tuples=st.lists(st.booleans(), min_size=30, max_size=30),
    )
    def test_equals_the_per_pair_sum(self, distinct, picks, as_tuples):
        # a corpus drawn from a few pairs repeats most of them, each
        # occurrence given as lists or as tuples
        corpus = [distinct[i % len(distinct)] for i in picks]
        mixed = [
            (tuple(ref), tuple(hyp)) if flag else (list(ref), list(hyp))
            for (ref, hyp), flag in zip(corpus, as_tuples)
        ]
        per_pair = [align_wer(ref, hyp) for ref, hyp in corpus]
        want = WerBreakdown(*(sum(getattr(b, f) for b in per_pair)
                              for f in ("deletions", "insertions", "substitutions", "ref_count")))
        assert corpus_wer(corpus) == want
        assert corpus_wer(mixed) == want
        assert corpus_wer([(tuple(ref), tuple(hyp)) for ref, hyp in corpus]) == want

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_each_distinct_pair_is_aligned_once(self, k):
        rng = np.random.default_rng(k)
        distinct = [(["a"] * i, ["a", "b"][: i % 3]) for i in range(k)]
        corpus = [distinct[j] for j in rng.permutation(np.arange(5 * k) % k)]
        corpus += [(tuple(ref), tuple(hyp)) for ref, hyp in distinct]  # tuples match lists
        calls = []

        def counted(ref, hyp):
            calls.append((tuple(ref), tuple(hyp)))
            return align_wer(ref, hyp)

        with mock.patch.object(wer_mod, "align_wer", counted):
            b = corpus_wer(corpus)
        assert len(calls) == k
        assert sorted(calls) == sorted((tuple(r), tuple(h)) for r, h in distinct)
        assert b.ref_count == sum(len(ref) for ref, _ in corpus)
