from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec import lexicon, ngram
from fusedec.fst import (
    EPSILON,
    Arc,
    FstError,
    SymbolTable,
    WeightedFst,
    build_fst,
    compose,
    output_weights,
    output_weights_batch,
    read_fst_text,
    relabel,
    shortest_paths,
    write_fst_text,
)

from conftest import random_dag_fst
from oracles import (
    best_string_weight_bruteforce,
    compose_relation_bruteforce,
    enumerate_paths,
    reference_compose,
    reference_output_weights,
    relation_table,
)


class TestSymbolTable:
    def test_epsilon_is_id_zero(self):
        t = SymbolTable(["a", "b"])
        assert t.id(EPSILON) == 0
        assert t.sym(0) == EPSILON
        assert t.id("a") == 1 and t.id("b") == 2
        assert len(t) == 3

    def test_unknown_symbol_raises(self):
        t = SymbolTable(["a"])
        with pytest.raises(FstError, match="unknown symbol"):
            t.id("zz")

    def test_duplicate_symbol_raises(self):
        with pytest.raises(FstError, match="duplicate"):
            SymbolTable(["a", "a"])

    def test_leading_epsilon_is_the_one_at_id_zero(self):
        # iterating a table gives <eps> first, and that list rebuilds it
        t = SymbolTable(["a", "b"])
        assert SymbolTable(list(t)) == t
        assert SymbolTable([EPSILON]) == SymbolTable()

    @pytest.mark.parametrize("symbols, position", [
        (["a", EPSILON, "b"], 1),
        (["a", "b", EPSILON], 2),
        ([EPSILON, EPSILON], 1),
    ], ids=["middle", "last", "twice"])
    def test_epsilon_anywhere_but_first_is_refused(self, symbols, position):
        # skipping it would give every later symbol an id one below its position
        with pytest.raises(FstError, match=f"^{EPSILON} may only come first, found at position {position}$"):
            SymbolTable(symbols)

    def test_encode_accepts_strings_and_ids(self):
        t = SymbolTable(["a", "b"])
        assert t.encode(["a", 2, "a"]) == (1, 2, 1)
        with pytest.raises(FstError):
            t.encode([7])

    def test_roundtrip_file(self, tmp_path):
        t = SymbolTable(["ae", "ay", "<eow>"])
        p = tmp_path / "t.syms"
        t.write(p)
        assert SymbolTable.read(p) == t

    @pytest.mark.parametrize("text, line, symbol, first", [
        ("<eps>\t0\na\t1\n<eps>\t2\nb\t3\n", 3, "<eps>", 1),
        ("<eps>\t0\nay\t1\n\nae\t2\nay\t3\n", 5, "ay", 2),
    ], ids=["epsilon", "phone"])
    def test_read_refuses_a_repeated_symbol(self, tmp_path, text, line, symbol, first):
        # every id stays as the file gives it: a repeat is never dropped
        p = tmp_path / "dup.syms"
        p.write_text(text)
        want = f"{p}: line {line}: symbol {symbol!r} already listed on line {first}"
        with pytest.raises(FstError, match=f"^{re.escape(want)}$"):
            SymbolTable.read(p)

    def test_read_rejects_sparse_ids(self, tmp_path):
        p = tmp_path / "bad.syms"
        p.write_text("<eps>\t0\na\t2\n")
        with pytest.raises(FstError, match="dense"):
            SymbolTable.read(p)


class TestBuild:
    def test_empty_string_acceptor(self, abc_syms):
        f = build_fst([], 0, {0: 0.0}, abc_syms, abc_syms)
        assert output_weights(f, []) == {(): 0.0}
        assert output_weights(f, ["a"]) == {}
        paths = shortest_paths(f, 3)
        assert paths == [type(paths[0])((), (), 0.0)]

    def test_single_arc_total_weight(self, abc_syms, xyz_syms):
        f = build_fst([(0, 1, 1, 1, 1.5)], 0, {1: 0.25}, abc_syms, xyz_syms)
        assert output_weights(f, ["a"]) == {(1,): pytest.approx(1.75)}

    def test_dangling_state_rejected(self, abc_syms):
        with pytest.raises(FstError, match="references state 7"):
            build_fst([(0, 7, 1, 1, 0.0)], 0, {0: 0.0}, abc_syms, abc_syms, num_states=2)

    def test_duplicate_final_rejected(self, abc_syms):
        with pytest.raises(FstError, match="duplicate final"):
            build_fst([], 0, [(0, 0.0), (0, 1.0)], abc_syms, abc_syms)

    def test_bad_weights_rejected(self, abc_syms):
        with pytest.raises(FstError):
            build_fst([(0, 1, 1, 1, math.nan)], 0, {1: 0.0}, abc_syms, abc_syms)
        with pytest.raises(FstError):
            build_fst([(0, 1, 1, 1, -math.inf)], 0, {1: 0.0}, abc_syms, abc_syms)

    def test_label_outside_table_rejected(self, abc_syms):
        with pytest.raises(FstError, match="input label"):
            build_fst([(0, 1, 9, 1, 0.0)], 0, {1: 0.0}, abc_syms, abc_syms)

    def test_arcs_frozen_and_sorted(self, abc_syms):
        f = build_fst(
            [(1, 0, 2, 2, 0.0), (0, 1, 3, 3, 0.0), (0, 1, 1, 1, 0.0)],
            0,
            {1: 0.0},
            abc_syms,
            abc_syms,
        )
        assert isinstance(f.arcs, tuple)
        keys = [(a.src, a.ilabel) for a in f.arcs]
        assert keys == sorted(keys)
        assert [a.ilabel for a in f.arcs_from(0)] == [1, 3]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), eps_prob=st.sampled_from([0.0, 0.25, 0.8]))
    def test_arcs_with_is_arcs_from_filtered_by_input_label(self, seed, eps_prob):
        rng = np.random.default_rng(seed)
        syms_in, syms_out = SymbolTable(["a", "b", "c"]), SymbolTable(["x", "y", "z"])
        f = random_dag_fst(rng, syms_in, syms_out, max_arcs=14, eps_prob=eps_prob)
        # the index fills one state at a time, so ask in a random order, twice
        for q in [*rng.permutation(f.num_states), *range(f.num_states)]:
            for label in range(len(syms_in) + 1):
                want = tuple(a for a in f.arcs_from(int(q)) if a.ilabel == label)
                assert f.arcs_with(int(q), label) == want

    def test_build_is_idempotent(self, abc_syms):
        arcs = [(0, 1, 1, 2, 0.5), (0, 1, 2, 1, 0.25)]
        f1 = build_fst(arcs, 0, {1: 0.0}, abc_syms, abc_syms)
        f2 = build_fst(f1.arcs, f1.start, f1.finals, f1.isyms, f1.osyms)
        assert f1.arcs == f2.arcs and f1.finals == f2.finals and f1.start == f2.start


class TestStringWeight:
    """The cheapest accepting weight of an input string is the least of its
    ``output_weights``, and None when that dict is empty."""

    def test_matches_enumeration_on_random_dags(self, abc_syms, xyz_syms):
        rng = np.random.default_rng(7)
        for _ in range(40):
            f = random_dag_fst(rng, abc_syms, xyz_syms)
            seen = {ils for ils, _, _ in enumerate_paths(f, f.num_states + 2)}
            probes = list(seen) + [(1,), (1, 2), (2, 2, 1)]
            for ils in probes:
                want = best_string_weight_bruteforce(f, tuple(ils), f.num_states + 2)
                got = min(output_weights(f, ils).values(), default=None)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-9)

    def test_cyclic_machine(self, abc_syms):
        f = build_fst([(0, 0, 1, 1, 1.0)], 0, {0: 0.5}, abc_syms, abc_syms)
        assert output_weights(f, ["a", "a", "a"]) == {(1, 1, 1): pytest.approx(3.5)}
        assert output_weights(f, []) == {(): pytest.approx(0.5)}

    def test_unknown_symbol_raises(self, abc_syms):
        f = build_fst([], 0, {0: 0.0}, abc_syms, abc_syms)
        with pytest.raises(FstError, match="zz"):
            output_weights(f, ["zz"])

    def test_epsilon_input_arcs_are_free_moves(self, abc_syms):
        # 0 -a-> 1 -eps-> 2 (final); the epsilon arc costs but reads nothing.
        f = build_fst([(0, 1, 1, 1, 0.5), (1, 2, 0, 0, 0.25)], 0, {2: 0.0}, abc_syms, abc_syms)
        assert output_weights(f, ["a"]) == {(1,): pytest.approx(0.75)}


class TestOutputWeights:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**16), eps_prob=st.sampled_from([0.25, 0.5, 0.8]))
    def test_matches_relation_table_on_random_dags(self, seed, eps_prob):
        # epsilon-input arcs of these machines mostly write output
        syms_in, syms_out = SymbolTable(["a", "b", "c"]), SymbolTable(["x", "y", "z"])
        f = random_dag_fst(np.random.default_rng(seed), syms_in, syms_out, eps_prob=eps_prob)
        rel = relation_table(f, f.num_states)
        probes = {ils for ils, _ in rel} | {(), (1,), (2, 1), (3, 3, 3)}
        for ils in probes:
            want = {ols: w for (i, ols), w in rel.items() if i == ils}
            got = output_weights(f, ils)
            assert got.keys() == want.keys()
            for ols, w in want.items():
                assert got[ols] == pytest.approx(w, abs=1e-9)

    def test_cyclic_machine_keeps_each_output_string_once(self, abc_syms, xyz_syms):
        # "a" loops through two routes writing x; the cheaper one counts
        f = build_fst(
            [(0, 0, 1, 1, 1.0), (0, 1, 1, 1, 0.25), (1, 0, 0, 0, 0.25), (0, 0, 2, 2, 0.5)],
            0, {0: 0.0}, abc_syms, xyz_syms,
        )
        assert output_weights(f, ["a", "b", "a"]) == {(1, 2, 1): pytest.approx(1.5)}
        assert output_weights(f, []) == {(): 0.0}
        assert output_weights(f, ["c"]) == {}

    def test_epsilon_cycle_writing_output_raises(self, abc_syms, xyz_syms):
        f = build_fst([(0, 0, 0, 1, 0.5), (0, 1, 1, 1, 0.0)], 0, {1: 0.0}, abc_syms, xyz_syms)
        with pytest.raises(FstError, match="input-epsilon cycle"):
            output_weights(f, ["a"])

    @pytest.mark.parametrize("length", [0, 3])
    def test_epsilon_cycle_writing_output_raises_at_every_length(self, abc_syms, xyz_syms, length):
        f = build_fst([(0, 0, 0, 1, 0.5), (0, 1, 1, 1, 0.0)], 0, {1: 0.0}, abc_syms, xyz_syms)
        with pytest.raises(FstError) as want:
            reference_output_weights(f, ["a"] * length)
        batch = [f.isyms.encode(["a"] * length)]
        for call in (lambda: output_weights(f, ["a"] * length), lambda: output_weights_batch(f, batch)):
            with pytest.raises(FstError) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_epsilon_cycle_writing_nothing_is_fine(self, abc_syms, xyz_syms):
        f = build_fst(
            [(0, 1, 0, 0, 0.5), (1, 0, 0, 0, 0.5), (1, 2, 1, 2, 0.0)], 0, {2: 0.0}, abc_syms, xyz_syms
        )
        assert output_weights(f, ["a"]) == {(2,): 0.5}


def random_cyclic_fst(rng, n_labels: int = 3) -> WeightedFst:
    """A random machine with labelled cycles and input-epsilon arcs that
    write output, but no input-epsilon cycle that writes output: each state
    has a rank, an input-epsilon arc never goes to a lower rank, and one
    that writes output goes to a higher one.  Weights repeat and include 0,
    0.1 and 0.3, so both ties and rounding that depends on the order of a
    sum occur."""
    n = int(rng.integers(1, 7))
    rank = rng.integers(0, 3, size=n)
    weights = [0.0, 0.1, 0.25, 0.3, 0.5, 1.0]
    syms = SymbolTable([f"s{i}" for i in range(1, n_labels + 1)])
    arcs = []
    for _ in range(int(rng.integers(0, 4 * n + 1))):
        src, dst = (int(q) for q in rng.integers(0, n, size=2))
        ilabel = int(rng.integers(0, n_labels + 1)) if rng.random() < 0.7 else 0
        olabel = int(rng.integers(0, n_labels + 1))
        if ilabel == 0 and (rank[dst] < rank[src] or (olabel and rank[dst] == rank[src])):
            continue
        arcs.append(Arc(src, dst, ilabel, olabel, float(rng.choice(weights))))
    finals = {int(q): float(rng.choice(weights)) for q in range(n) if rng.random() < 0.5}
    return build_fst(arcs, 0, finals, syms, syms, num_states=n)


class TestOutputWeightsBatch:
    """The label-synchronous walk gives what the single Dijkstra over
    (labels read, state, output so far) gives, float for float."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strings=st.lists(st.lists(st.integers(0, 3), max_size=5).map(tuple), max_size=10),
    )
    def test_matches_the_reference_on_random_cyclic_machines(self, seed, strings):
        # strings over 1-3 share prefixes; a 0 label, or a string leaving
        # the machine, has no parse
        f = random_cyclic_fst(np.random.default_rng(seed))
        strings = [*strings, (), *(s[:k] for s in strings[:3] for k in range(len(s)))]
        want = [reference_output_weights(f, s) for s in strings]
        assert output_weights_batch(f, strings) == want
        assert [output_weights(f, s) for s in strings] == want

    def test_a_batch_with_repeats_equals_one_call_per_string(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            f = random_cyclic_fst(rng)
            strings = [tuple(int(t) for t in rng.integers(1, 4, size=int(rng.integers(0, 4)))) for _ in range(6)]
            strings += strings[::2] + [()]
            assert output_weights_batch(f, strings) == [output_weights(f, s) for s in strings]

    def test_empty_batch(self, abc_syms):
        assert output_weights_batch(build_fst([], 0, {0: 0.0}, abc_syms, abc_syms), []) == []


class TestCompose:
    def test_single_path_product(self, abc_syms, xyz_syms):
        mid = SymbolTable(["m"])
        a = build_fst([(0, 1, 1, 1, 0.5)], 0, {1: 0.0}, abc_syms, mid)
        b = build_fst([(0, 1, 1, 2, 0.75)], 0, {1: 0.0}, mid, xyz_syms)
        c = compose(a, b)
        assert c.isyms == abc_syms and c.osyms == xyz_syms
        assert output_weights(c, ["a"]) == {(2,): pytest.approx(1.25)}
        paths = shortest_paths(c, 2)
        assert len(paths) == 1
        assert c.osyms.decode(paths[0].olabels) == ("y",)

    def test_table_mismatch_rejected(self, abc_syms, xyz_syms):
        a = build_fst([], 0, {0: 0.0}, abc_syms, abc_syms)
        b = build_fst([], 0, {0: 0.0}, xyz_syms, xyz_syms)
        with pytest.raises(FstError, match="table"):
            compose(a, b)

    def test_identity_preserves_relation(self, abc_syms, xyz_syms):
        rng = np.random.default_rng(11)
        ident_arcs = [(0, 0, i, i, 0.0) for i in range(1, len(xyz_syms))]
        ident = build_fst(ident_arcs, 0, {0: 0.0}, xyz_syms, xyz_syms)
        for _ in range(20):
            a = random_dag_fst(rng, abc_syms, xyz_syms)
            c = compose(a, ident)
            got = relation_table(c, a.num_states + 3)
            want = relation_table(a, a.num_states + 3)
            assert set(got) == set(want)
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-9)

    def test_left_drop_then_right_insert(self, abc_syms, xyz_syms):
        # A consumes "a" writing nothing; B reads nothing writing "x".  The
        # pair must survive composition as a:x (the paired-epsilon move).
        mid = SymbolTable(["m"])
        a = build_fst([(0, 1, 1, 0, 0.5)], 0, {1: 0.0}, abc_syms, mid)
        b = build_fst([(0, 1, 0, 1, 0.25)], 0, {1: 0.0}, mid, xyz_syms)
        c = compose(a, b)
        rel = relation_table(c, 6)
        assert rel == {((1,), (1,)): pytest.approx(0.75)}

    def test_no_duplicate_paths_from_epsilon_interleavings(self, abc_syms, xyz_syms):
        # One eps-output arc on the left and one eps-input arc on the right
        # between two matches: exactly one composed path may survive.
        mid = SymbolTable(["m"])
        a = build_fst(
            [(0, 1, 1, 1, 0.1), (1, 2, 2, 0, 0.2), (2, 3, 1, 1, 0.3)],
            0,
            {3: 0.0},
            abc_syms,
            mid,
        )
        b = build_fst(
            [(0, 1, 1, 1, 0.1), (1, 2, 0, 2, 0.2), (2, 3, 1, 3, 0.3)],
            0,
            {3: 0.0},
            mid,
            xyz_syms,
        )
        c = compose(a, b)
        paths = enumerate_paths(c, 12)
        assert len(paths) == 1
        ils, ols, w = paths[0]
        assert c.isyms.decode(ils) == ("a", "b", "a")
        assert c.osyms.decode(ols) == ("x", "y", "z")
        assert w == pytest.approx(1.2)

    def test_matches_bruteforce_join_on_random_pairs(self, abc_syms, xyz_syms):
        rng = np.random.default_rng(1234)
        mid = SymbolTable(["p", "q"])
        for _ in range(25):
            a = random_dag_fst(rng, abc_syms, mid)
            b = random_dag_fst(rng, mid, xyz_syms)
            c = compose(a, b)
            max_arcs = a.num_states + b.num_states + 2
            got = relation_table(c, max_arcs, max_labels=6)
            want = compose_relation_bruteforce(a, b, max(a.num_states, b.num_states) + 2, 6)
            assert set(got) == set(want)
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-9)

    def test_associativity_on_string_weights(self, abc_syms, xyz_syms):
        rng = np.random.default_rng(99)
        mid1 = SymbolTable(["p", "q"])
        mid2 = SymbolTable(["r", "s"])
        for _ in range(10):
            a = random_dag_fst(rng, abc_syms, mid1)
            b = random_dag_fst(rng, mid1, mid2)
            c = random_dag_fst(rng, mid2, xyz_syms)
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            for ils in [(), (1,), (1, 2), (2,), (1, 1, 2), (3, 1)]:
                wl = output_weights(left, ils)
                wr = output_weights(right, ils)
                assert wl.keys() == wr.keys()
                for ols, w in wl.items():
                    assert wr[ols] == pytest.approx(w, abs=1e-9)

    def test_empty_intersection_yields_empty_machine(self, abc_syms, xyz_syms):
        mid = SymbolTable(["m", "n"])
        a = build_fst([(0, 1, 1, 1, 0.0)], 0, {1: 0.0}, abc_syms, mid)
        b = build_fst([(0, 1, 2, 1, 0.0)], 0, {1: 0.0}, mid, xyz_syms)
        c = compose(a, b)
        assert shortest_paths(c, 1) == []
        assert output_weights(c, ["a"]) == {}


def skewed_fst(rng, isyms, osyms, eps_prob) -> WeightedFst:
    """A random machine, cycles allowed, whose states fan out to anything
    from no arc to twenty, some arcs doubled with the same labels."""
    n = int(rng.integers(1, 7))
    arcs = []
    for q in range(n):
        for _ in range(int(rng.integers(0, 11 if rng.random() < 0.5 else 3))):
            il = 0 if rng.random() < eps_prob else int(rng.integers(1, len(isyms)))
            ol = 0 if rng.random() < eps_prob else int(rng.integers(1, len(osyms)))
            for _ in range(2 if rng.random() < 0.25 else 1):
                arcs.append((q, int(rng.integers(n)), il, ol, round(float(rng.uniform(0.0, 2.0)), 3)))
    final_states = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    finals = {int(q): round(float(rng.uniform(0.0, 1.0)), 3) for q in final_states}
    return build_fst(arcs, int(rng.integers(n)), finals, isyms, osyms, num_states=n)


def assert_same_machine(got: WeightedFst, want: WeightedFst) -> None:
    assert got.num_states == want.num_states
    assert got.start == want.start
    assert got.finals == want.finals
    assert got.arcs == want.arcs
    assert got.isyms == want.isyms and got.osyms == want.osyms


class TestComposeMatchesReference:
    """``compose`` looks labels up from the right side, whichever side is
    sparser; the machine it returns must be the reference's, state
    numbering included, with no tolerance on any weight."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps_prob=st.sampled_from([0.0, 0.2, 0.5]))
    def test_random_machines(self, seed, eps_prob):
        rng = np.random.default_rng(seed)
        outer, mid = SymbolTable(["a", "b", "c"]), SymbolTable(["m", "n", "o", "p", "q", "r"])
        a = skewed_fst(rng, outer, mid, eps_prob)
        b = skewed_fst(rng, mid, outer, eps_prob)
        assert_same_machine(compose(a, b), reference_compose(a, b))

    def test_lexicon_with_homophones_composed_with_a_bigram(self):
        # The benchmark's shape: the lexicon root writes one word per
        # pronunciation, far more labels than most grammar states read.
        # Sentences start with one of 20 words, so the start state is
        # matched from the grammar's side and its matches must still come
        # out in the lexicon's arc order.
        rng = np.random.default_rng(5)
        words = [f"w{i:03d}" for i in range(200)]
        phones = [f"p{i:02d}" for i in range(24)]
        prons: dict[str, tuple[str, ...]] = {}
        for i, word in enumerate(words):
            if i >= 10 and i % 10 == 0:
                prons[word] = prons[words[int(rng.integers(i))]]
            else:
                prons[word] = tuple(phones[int(k)] for k in rng.integers(24, size=2 + i % 3))
        successors = [rng.choice(200, size=8, replace=False) for _ in words]
        sentences = [[words[0], word] for word in words]
        for _ in range(1000):
            w = int(rng.integers(20))
            sentence = [words[w]]
            for _ in range(int(rng.integers(0, 6))):
                w = int(successors[w][int(rng.integers(8))])
                sentence.append(words[w])
            sentences.append(sentence)
        lm_fst = ngram.lm_to_fst(ngram.train_ngram(sentences, 2, "absdisc"))
        lex = lexicon.parse_lexicon("".join(f"{w}\t{' '.join(p)}\n" for w, p in prons.items()))
        left = relabel(lexicon.compile_lexicon(lex, "optional"), osyms=lm_fst.isyms)
        assert len(left.arcs_from(left.start)) == 200
        got = compose(left, lm_fst)
        assert got.num_states > 1000
        assert_same_machine(got, reference_compose(left, lm_fst))


class TestShortestPaths:
    def test_ties_break_on_output_labels(self, abc_syms, xyz_syms):
        f = build_fst(
            [(0, 1, 1, 2, 1.0), (0, 1, 1, 1, 1.0)],
            0,
            {1: 0.0},
            abc_syms,
            xyz_syms,
        )
        paths = shortest_paths(f, 2)
        assert [p.weight for p in paths] == [1.0, 1.0]
        assert xyz_syms.decode(paths[0].olabels) == ("x",)
        assert xyz_syms.decode(paths[1].olabels) == ("y",)

    def test_ascending_weights_match_enumeration(self, abc_syms, xyz_syms):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = random_dag_fst(rng, abc_syms, xyz_syms, max_states=6, max_arcs=10)
            all_paths = enumerate_paths(f, f.num_states + 2)
            want = sorted((w, ols, ils) for ils, ols, w in all_paths)
            got = shortest_paths(f, 5)
            assert len(got) == min(5, len(want))
            for p, (w, ols, ils) in zip(got, want):
                assert p.weight == pytest.approx(w, abs=1e-9)
                assert (p.olabels, p.ilabels) == (ols, ils)

    def test_cycle_enumeration(self, abc_syms):
        f = build_fst([(0, 0, 1, 1, 1.0)], 0, {0: 0.0}, abc_syms, abc_syms)
        paths = shortest_paths(f, 4)
        assert [p.weight for p in paths] == [0.0, 1.0, 2.0, 3.0]
        assert [len(p.ilabels) for p in paths] == [0, 1, 2, 3]

    def test_requests_beyond_path_count_return_all(self, abc_syms):
        f = build_fst([(0, 1, 1, 1, 0.5)], 0, {1: 0.0}, abc_syms, abc_syms)
        assert len(shortest_paths(f, 50)) == 1

    def test_negative_weight_rejected(self, abc_syms):
        f = build_fst([(0, 1, 1, 1, -0.5)], 0, {1: 0.0}, abc_syms, abc_syms)
        with pytest.raises(FstError, match="non-negative"):
            shortest_paths(f, 1)

    def test_no_final_state_returns_nothing(self, abc_syms):
        f = build_fst([(0, 1, 1, 1, 0.5)], 0, {}, abc_syms, abc_syms, num_states=2)
        assert shortest_paths(f, 3) == []


class TestRelabelAndIO:
    def test_relabel_by_symbol_string(self, abc_syms):
        target = SymbolTable(["c", "b", "a"])
        f = build_fst([(0, 1, 1, 3, 0.5)], 0, {1: 0.0}, abc_syms, abc_syms)
        g = relabel(f, isyms=target, osyms=target)
        assert output_weights(g, ["a"]) == {(target.id("c"),): pytest.approx(0.5)}
        paths = shortest_paths(g, 1)
        assert target.decode(paths[0].olabels) == ("c",)

    def test_relabel_missing_symbol_named(self, abc_syms):
        target = SymbolTable(["a"])
        f = build_fst([(0, 1, 2, 2, 0.0)], 0, {1: 0.0}, abc_syms, abc_syms)
        with pytest.raises(FstError, match="'b'"):
            relabel(f, isyms=target, osyms=target)

    def test_relabel_keeping_every_id_equals_a_full_rebuild(self, abc_syms):
        f = build_fst([(0, 1, 1, 2, 0.5), (1, 0, 0, 1, 0.25), (1, 2, 2, 0, 1.0)], 0, {2: 0.0}, abc_syms, abc_syms)
        larger = SymbolTable(["a", "b", "c", "d"])
        unused_moved = SymbolTable(["a", "b", "d"])  # "c" is on no input label
        for isyms, osyms in [(abc_syms, None), (larger, None), (None, larger), (larger, larger), (unused_moved, None)]:
            g = relabel(f, isyms=isyms, osyms=osyms)
            rebuilt = WeightedFst(f.num_states, f.start, f.finals, list(f.arcs), isyms or abc_syms, osyms or abc_syms)
            assert_same_machine(g, rebuilt)
            assert g.arcs is f.arcs

    def test_relabel_to_a_permuted_table_sorts_the_arcs_again(self, abc_syms):
        f = build_fst(
            [(0, 1, 1, 1, 0.5), (0, 1, 3, 2, 0.25), (0, 2, 3, 1, 0.75), (1, 2, 2, 3, 1.0)],
            0, {2: 0.0}, abc_syms, abc_syms,
        )
        target = SymbolTable(["c", "b", "a"])
        g = relabel(f, isyms=target, osyms=target)
        assert g.arcs is not f.arcs
        assert [(a.src, a.ilabel, a.olabel, a.dst, a.weight) for a in g.arcs] == [
            (0, 1, 2, 1, 0.25),
            (0, 1, 3, 2, 0.75),
            (0, 3, 3, 1, 0.5),
            (1, 2, 1, 2, 1.0),
        ]

    @pytest.mark.parametrize("target", [["a", "b"], ["b", "a"]], ids=["ids-kept", "ids-moved"])
    def test_relabel_names_a_missing_symbol_whether_or_not_ids_are_kept(self, abc_syms, target):
        f = build_fst([(0, 1, 1, 1, 0.0), (1, 2, 2, 2, 0.0), (2, 3, 3, 1, 0.0)], 0, {3: 0.0}, abc_syms, abc_syms)
        with pytest.raises(FstError, match="symbol 'c' missing"):
            relabel(f, isyms=SymbolTable(target))
        assert relabel(f, osyms=SymbolTable(target)).osyms == SymbolTable(target)

    def test_relabeled_machine_builds_its_own_label_index(self, abc_syms):
        f = build_fst([(0, 1, 1, 1, 0.5), (0, 1, 2, 2, 0.25)], 0, {1: 0.0}, abc_syms, abc_syms)
        assert f.arcs_with(0, 1) == (f.arcs[0],)
        g = relabel(f, isyms=SymbolTable(["a", "b", "c", "d"]))
        assert g.arcs_with(0, 2) == (f.arcs[1],)
        assert g._by_label is not f._by_label

    def test_text_roundtrip(self, tmp_path, abc_syms, xyz_syms):
        rng = np.random.default_rng(21)
        for i in range(10):
            f = random_dag_fst(rng, abc_syms, xyz_syms)
            if not f.arcs_from(f.start):
                continue
            p = tmp_path / f"m{i}.fst.txt"
            write_fst_text(f, p)
            g = read_fst_text(p, abc_syms, xyz_syms)
            assert g.start == f.start
            assert g.arcs == f.arcs
            assert g.finals == pytest.approx(f.finals)

    def test_first_arc_line_is_start(self, tmp_path, abc_syms):
        f = build_fst([(1, 0, 1, 1, 0.0), (0, 1, 2, 2, 0.0)], 1, {0: 0.0}, abc_syms, abc_syms)
        p = tmp_path / "m.fst.txt"
        write_fst_text(f, p)
        first = p.read_text().splitlines()[0]
        assert first.split("\t")[0] == "1"
        assert read_fst_text(p, abc_syms, abc_syms).start == 1

    def test_parse_error_names_line(self, tmp_path, abc_syms):
        p = tmp_path / "bad.fst.txt"
        p.write_text("0\t1\ta\ta\t0.0\n0\t1\tzz\ta\t0.0\n")
        with pytest.raises(FstError, match="line 2"):
            read_fst_text(p, abc_syms, abc_syms)

    def test_final_only_machine(self, tmp_path, abc_syms):
        f = build_fst([], 0, {0: 0.25}, abc_syms, abc_syms)
        p = tmp_path / "eps.fst.txt"
        write_fst_text(f, p)
        g = read_fst_text(p, abc_syms, abc_syms)
        assert g.start == 0 and g.finals == {0: 0.25}
        assert output_weights(g, []) == {(): pytest.approx(0.25)}
