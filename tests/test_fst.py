from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedec.fst import (
    EPSILON,
    Arc,
    FstError,
    SymbolTable,
    build_fst,
    compose,
    linear_fst,
    output_weights,
    read_fst_text,
    relabel,
    shortest_paths,
    string_weight,
    write_fst_text,
)

from conftest import random_dag_fst
from oracles import (
    best_string_weight_bruteforce,
    compose_relation_bruteforce,
    enumerate_paths,
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

    def test_read_rejects_sparse_ids(self, tmp_path):
        p = tmp_path / "bad.syms"
        p.write_text("<eps>\t0\na\t2\n")
        with pytest.raises(FstError, match="dense"):
            SymbolTable.read(p)


class TestBuild:
    def test_empty_string_acceptor(self, abc_syms):
        f = build_fst([], 0, {0: 0.0}, abc_syms, abc_syms)
        assert string_weight(f, []) == 0.0
        assert string_weight(f, ["a"]) is None
        paths = shortest_paths(f, 3)
        assert paths == [type(paths[0])((), (), 0.0)]

    def test_single_arc_total_weight(self, abc_syms, xyz_syms):
        f = build_fst([(0, 1, 1, 1, 1.5)], 0, {1: 0.25}, abc_syms, xyz_syms)
        assert string_weight(f, ["a"]) == pytest.approx(1.75)

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

    def test_build_is_idempotent(self, abc_syms):
        arcs = [(0, 1, 1, 2, 0.5), (0, 1, 2, 1, 0.25)]
        f1 = build_fst(arcs, 0, {1: 0.0}, abc_syms, abc_syms)
        f2 = build_fst(f1.arcs, f1.start, f1.finals, f1.isyms, f1.osyms)
        assert f1.arcs == f2.arcs and f1.finals == f2.finals and f1.start == f2.start


class TestStringWeight:
    def test_matches_enumeration_on_random_dags(self, abc_syms, xyz_syms):
        rng = np.random.default_rng(7)
        for _ in range(40):
            f = random_dag_fst(rng, abc_syms, xyz_syms)
            seen = {ils for ils, _, _ in enumerate_paths(f, f.num_states + 2)}
            probes = list(seen) + [(1,), (1, 2), (2, 2, 1)]
            for ils in probes:
                want = best_string_weight_bruteforce(f, tuple(ils), f.num_states + 2)
                got = string_weight(f, ils)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-9)

    def test_cyclic_machine(self, abc_syms):
        f = build_fst([(0, 0, 1, 1, 1.0)], 0, {0: 0.5}, abc_syms, abc_syms)
        assert string_weight(f, ["a", "a", "a"]) == pytest.approx(3.5)
        assert string_weight(f, []) == pytest.approx(0.5)

    def test_unknown_symbol_raises(self, abc_syms):
        f = build_fst([], 0, {0: 0.0}, abc_syms, abc_syms)
        with pytest.raises(FstError, match="zz"):
            string_weight(f, ["zz"])

    def test_epsilon_input_arcs_are_free_moves(self, abc_syms):
        # 0 -a-> 1 -eps-> 2 (final); the epsilon arc costs but reads nothing.
        f = build_fst([(0, 1, 1, 1, 0.5), (1, 2, 0, 0, 0.25)], 0, {2: 0.0}, abc_syms, abc_syms)
        assert string_weight(f, ["a"]) == pytest.approx(0.75)


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
        with pytest.raises(FstError, match="input-epsilon cycle"):
            string_weight(f, ["a"])

    def test_epsilon_cycle_writing_nothing_is_fine(self, abc_syms, xyz_syms):
        f = build_fst(
            [(0, 1, 0, 0, 0.5), (1, 0, 0, 0, 0.5), (1, 2, 1, 2, 0.0)], 0, {2: 0.0}, abc_syms, xyz_syms
        )
        assert output_weights(f, ["a"]) == {(2,): 0.5}


class TestCompose:
    def test_single_path_product(self, abc_syms, xyz_syms):
        mid = SymbolTable(["m"])
        a = build_fst([(0, 1, 1, 1, 0.5)], 0, {1: 0.0}, abc_syms, mid)
        b = build_fst([(0, 1, 1, 2, 0.75)], 0, {1: 0.0}, mid, xyz_syms)
        c = compose(a, b)
        assert c.isyms == abc_syms and c.osyms == xyz_syms
        assert string_weight(c, ["a"]) == pytest.approx(1.25)
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
                wl = string_weight(left, ils)
                wr = string_weight(right, ils)
                if wl is None or wr is None:
                    assert wl is None and wr is None
                else:
                    assert wl == pytest.approx(wr, abs=1e-9)

    def test_empty_intersection_yields_empty_machine(self, abc_syms, xyz_syms):
        mid = SymbolTable(["m", "n"])
        a = build_fst([(0, 1, 1, 1, 0.0)], 0, {1: 0.0}, abc_syms, mid)
        b = build_fst([(0, 1, 2, 1, 0.0)], 0, {1: 0.0}, mid, xyz_syms)
        c = compose(a, b)
        assert shortest_paths(c, 1) == []
        assert string_weight(c, ["a"]) is None


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
        assert string_weight(g, ["a"]) == pytest.approx(0.5)
        paths = shortest_paths(g, 1)
        assert target.decode(paths[0].olabels) == ("c",)

    def test_relabel_missing_symbol_named(self, abc_syms):
        target = SymbolTable(["a"])
        f = build_fst([(0, 1, 2, 2, 0.0)], 0, {1: 0.0}, abc_syms, abc_syms)
        with pytest.raises(FstError, match="'b'"):
            relabel(f, isyms=target, osyms=target)

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
        assert string_weight(g, []) == pytest.approx(0.25)
