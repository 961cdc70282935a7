from __future__ import annotations

import itertools

import numpy as np
import pytest

from fusedec.fst import EPSILON, FstError, SymbolTable, output_weights
from fusedec.lexicon import (
    EOW,
    LexiconError,
    PronLexicon,
    compile_lexicon,
    parse_lexicon,
)

from oracles import enumerate_paths, segmentations_bruteforce

THE_CAT = "the\td ax\ncat\tk ae t\n"
HOMOPHONES = "I\tay\neye\tay\nam\tae m\n"


def word_strings(f, phones):
    """Every word sequence the compiled lexicon writes for a phone string,
    in lexicographic order, however many paths spell each one."""
    return sorted(f.osyms.decode(ols) for ols in output_weights(f, phones))


class TestParse:
    def test_basic_entries_and_phoneset(self):
        lex = parse_lexicon(THE_CAT)
        assert lex.entries == {"the": (("d", "ax"),), "cat": (("k", "ae", "t"),)}
        assert list(lex.phoneset) == [EPSILON, "d", "ax", "k", "ae", "t", EOW]

    def test_duplicate_pairs_collapse(self):
        lex = parse_lexicon("a\tx\na\tx\na\tx y\n")
        assert lex.entries["a"] == (("x",), ("x", "y"))

    def test_comments_and_blanks_skipped(self):
        lex = parse_lexicon("# header\n\nthe\td ax\n")
        assert list(lex.entries) == ["the"]

    def test_unknown_phoneme_names_line(self):
        phoneset = SymbolTable(["d", "ax", EOW])
        with pytest.raises(LexiconError, match="line 2.*'zz'"):
            parse_lexicon("the\td ax\nbad\tzz\n", phoneset)

    def test_missing_tab_rejected(self):
        with pytest.raises(LexiconError, match="line 1"):
            parse_lexicon("the d ax\n")

    @pytest.mark.parametrize("line", ["I\t<eps> ay", "<eps>\tae"])
    @pytest.mark.parametrize("phoneset", [None, SymbolTable(["ay", "ae", "m", EOW])])
    def test_epsilon_is_reserved(self, line, phoneset):
        # <eps> is id 0 in every table, so without the check it reads as no symbol
        with pytest.raises(LexiconError, match=f"line 2: {EPSILON} is reserved"):
            parse_lexicon(f"am\tae m\n{line}\n", phoneset)

    @pytest.mark.parametrize("symbol", [EOW, "<sos>", "<eos>"])
    @pytest.mark.parametrize("phoneset", [None, SymbolTable(["ay", "ae", "m", EOW, "<sos>", "<eos>"])])
    def test_control_symbol_in_a_pronunciation_is_refused(self, symbol, phoneset):
        # the compiled lexicon adds <eow> itself; the scorer alone emits <sos> and <eos>
        with pytest.raises(LexiconError, match=f"^line 2: {symbol} is reserved and cannot appear in a pronunciation$"):
            parse_lexicon(f"I\tay\nam\tae {symbol}\n", phoneset)

    def test_empty_pronunciation_rejected(self):
        with pytest.raises(LexiconError, match="empty pronunciation"):
            parse_lexicon("the\t   \n")

    def test_empty_input_gives_empty_lexicon(self):
        lex = parse_lexicon("")
        assert lex.entries == {}


class TestCompile:
    def test_empty_lexicon_rejected(self):
        with pytest.raises(LexiconError, match="empty"):
            compile_lexicon(parse_lexicon(""), "required")

    def test_bad_mode_rejected(self):
        with pytest.raises(LexiconError, match="eow_mode"):
            compile_lexicon(parse_lexicon(THE_CAT), "maybe")

    def test_phoneset_must_include_eow(self):
        phoneset = SymbolTable(["d", "ax"])
        lex = PronLexicon({"the": (("d", "ax"),)}, phoneset)
        with pytest.raises(LexiconError, match="<eow>"):
            compile_lexicon(lex, "required")

    def test_machine_is_unweighted(self):
        f = compile_lexicon(parse_lexicon(THE_CAT), "optional")
        assert all(a.weight == 0.0 for a in f.arcs)
        assert f.finals == {0: 0.0}

    def test_word_emitted_on_first_arc_with_homophone_fanout(self):
        lex = parse_lexicon(HOMOPHONES)
        f = compile_lexicon(lex, "required")
        ay = f.isyms.id("ay")
        root_ay = [a for a in f.arcs_from(0) if a.ilabel == ay]
        assert {f.osyms.sym(a.olabel) for a in root_ay} == {"I", "eye"}

    def test_spec_rendering_required(self):
        f = compile_lexicon(parse_lexicon(THE_CAT), "required")
        phones = ["d", "ax", EOW, "k", "ae", "t", EOW]
        assert word_strings(f, phones) == [("the", "cat")]
        assert word_strings(f, ["d", "ax", "k", "ae", "t"]) == []

    def test_spec_rendering_optional(self):
        f = compile_lexicon(parse_lexicon(THE_CAT), "optional")
        assert word_strings(f, ["d", "ax", "k", "ae", "t"]) == [("the", "cat")]
        assert word_strings(f, ["d", "ax", EOW, "k", "ae", "t", EOW]) == [("the", "cat")]

    def test_homophone_outputs_sorted(self):
        f = compile_lexicon(parse_lexicon(HOMOPHONES), "optional")
        assert word_strings(f, ["ay", "ae", "m"]) == [("I", "am"), ("eye", "am")]

    def test_every_word_string_is_listed_however_many_paths(self):
        # four homophones over five words spell 1024 strings, one path each
        lex = parse_lexicon("".join(f"w{i}\tp\n" for i in range(4)))
        f = compile_lexicon(lex, "required")
        got = word_strings(f, ["p", EOW] * 5)
        assert got == sorted(itertools.product(lex.entries, repeat=5))

    def test_empty_sequence_accepted(self):
        f = compile_lexicon(parse_lexicon(THE_CAT), "required")
        assert word_strings(f, []) == [()]

    def test_unknown_phone_symbol_raises(self):
        f = compile_lexicon(parse_lexicon(THE_CAT), "required")
        with pytest.raises(FstError, match="zz"):
            word_strings(f, ["zz"])

    def test_required_accepts_subset_of_optional(self):
        lex = parse_lexicon("a\tx\nb\tx y\n")
        req = compile_lexicon(lex, "required")
        opt = compile_lexicon(lex, "optional")
        req_strings = {ils for ils, _, _ in enumerate_paths(req, 8)}
        opt_strings = {ils for ils, _, _ in enumerate_paths(opt, 8)}
        assert req_strings < opt_strings
        eow = req.isyms.id(EOW)
        assert all(eow in s or s == () for s in req_strings)
        extra = opt_strings - req_strings
        assert any(eow not in s and s for s in extra)

    def test_closed_under_concatenation(self):
        lex = parse_lexicon(HOMOPHONES)
        f = compile_lexicon(lex, "required")
        for words in itertools.product(lex.entries, repeat=2):
            phones: list[str] = []
            for w in words:
                phones.extend(lex.entries[w][0])
                phones.append(EOW)
            assert words in word_strings(f, phones)


class TestAgainstSegmentationOracle:
    @pytest.mark.parametrize("mode", ["required", "optional"])
    def test_random_phone_strings(self, mode):
        lex = parse_lexicon("a\tx\nb\tx y\nc\ty\nd\tx y x\n")
        f = compile_lexicon(lex, mode)
        rng = np.random.default_rng(3)
        alphabet = ["x", "y", EOW]
        for _ in range(120):
            n = int(rng.integers(0, 7))
            phones = tuple(alphabet[i] for i in rng.integers(0, len(alphabet), n))
            want = sorted(segmentations_bruteforce(phones, lex.entries, mode))
            assert word_strings(f, list(phones)) == want
