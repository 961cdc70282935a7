"""Pronunciation lexicon parsing and compilation to a phoneme-to-word transducer.

The compiled machine reads context-independent phoneme strings and writes word
strings.  It is closed under concatenation: every pronunciation chain loops
back to the root, so whole word sequences are accepted, not just single words.
Word boundaries are marked by ``<eow>`` on the input side; in ``optional``
mode each word end additionally has a free input-epsilon transition back to
the root, so boundary-less phone strings parse too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fst import Arc, SymbolTable, WeightedFst, build_fst, output_weights

EOW = "<eow>"

EOW_MODES = ("required", "optional")


class LexiconError(ValueError):
    """Malformed lexicon text or an unusable compilation request."""


@dataclass(frozen=True)
class PronLexicon:
    """Words with one or more phoneme-string pronunciations.

    ``entries`` maps each word to its pronunciations in file order;
    ``phoneset`` is the phoneme alphabet (it includes ``<eow>``).
    """

    entries: dict[str, tuple[tuple[str, ...], ...]]
    phoneset: SymbolTable

    def __post_init__(self):
        for word, prons in self.entries.items():
            if not prons:
                raise LexiconError(f"word {word!r} has no pronunciations")
            for pron in prons:
                if not pron:
                    raise LexiconError(f"word {word!r} has an empty pronunciation")
                for ph in pron:
                    if ph not in self.phoneset:
                        raise LexiconError(f"word {word!r} uses unknown phoneme {ph!r}")

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(self.entries)


def parse_lexicon(text: str, phoneset: SymbolTable | None = None) -> PronLexicon:
    """Parse ``word<TAB>phone phone ...`` lines.

    Blank lines and ``#`` comments are skipped; duplicate (word, pronunciation)
    pairs collapse to one.  With an explicit ``phoneset``, unknown phonemes are
    errors naming the line; otherwise the phoneset is built from the data in
    first-appearance order, with ``<eow>`` appended when absent.
    """
    entries: dict[str, list[tuple[str, ...]]] = {}
    seen_phones: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in raw:
            raise LexiconError(f"line {lineno}: expected 'word<TAB>phonemes'")
        word, rest = raw.split("\t", 1)
        word = word.strip()
        pron = tuple(rest.split())
        if not word:
            raise LexiconError(f"line {lineno}: empty word")
        if not pron:
            raise LexiconError(f"line {lineno}: empty pronunciation for {word!r}")
        if phoneset is not None:
            for ph in pron:
                if ph not in phoneset:
                    raise LexiconError(f"line {lineno}: unknown phoneme symbol {ph!r}")
        else:
            for ph in pron:
                if ph not in seen_phones:
                    seen_phones.append(ph)
        prons = entries.setdefault(word, [])
        if pron not in prons:
            prons.append(pron)
    if phoneset is None:
        if EOW not in seen_phones:
            seen_phones.append(EOW)
        phoneset = SymbolTable(seen_phones)
    return PronLexicon({w: tuple(p) for w, p in entries.items()}, phoneset)


def compile_lexicon(lex: PronLexicon, eow_mode: str) -> WeightedFst:
    """Compile the unweighted phoneme-to-word transducer.

    Each pronunciation is a chain from the root emitting the word on its first
    arc, consuming ``<eow>`` back to the root.  ``optional`` mode adds a
    parallel free (input-epsilon) boundary transition.  The root is final, so
    the machine accepts any concatenation of words, including the empty one.
    Homophones simply contribute parallel chains with different output labels.
    """
    if eow_mode not in EOW_MODES:
        raise LexiconError(f"eow_mode must be one of {EOW_MODES}, got {eow_mode!r}")
    if not lex.entries:
        raise LexiconError("cannot compile an empty lexicon")
    if EOW not in lex.phoneset:
        raise LexiconError(f"phoneset must include {EOW}")
    isyms = lex.phoneset
    osyms = SymbolTable(lex.entries)
    eow_id = isyms.id(EOW)
    arcs: list[Arc] = []
    next_state = 1
    for word, prons in lex.entries.items():
        word_id = osyms.id(word)
        for pron in prons:
            cur = 0
            for k, ph in enumerate(pron):
                arcs.append(Arc(cur, next_state, isyms.id(ph), word_id if k == 0 else 0, 0.0))
                cur = next_state
                next_state += 1
            arcs.append(Arc(cur, 0, eow_id, 0, 0.0))
            if eow_mode == "optional":
                arcs.append(Arc(cur, 0, 0, 0, 0.0))
    return build_fst(arcs, 0, {0: 0.0}, isyms, osyms, num_states=next_state)


def phones_to_words(
    lexicon_fst: WeightedFst, phones: list[str] | tuple[str, ...]
) -> list[tuple[str, ...]]:
    """All distinct word sequences the lexicon transducer assigns to a phone
    string, in lexicographic order, however many paths spell each one."""
    return sorted(lexicon_fst.osyms.decode(o) for o in output_weights(lexicon_fst, phones))
