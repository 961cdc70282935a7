"""Synthetic decoding tasks at desk scale.

Sentences are sampled from a language model, rendered to phoneme strings
through the lexicon, and turned into one-hot-plus-noise feature frames.
Phoneme confusions at the noise rate corrupt both the frames and the target
string, so a scorer built from the rendering makes realistic mistakes that
a language model can fix.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fst import SymbolTable
from .lexicon import EOW, PronLexicon, parse_lexicon
from .ngram import NGramModel, read_arpa, write_arpa
from .scorer import EOS, SOS, TableScorer, Utterance, as_features

MAX_SENTENCE_WORDS = 12
_RESAMPLE_ATTEMPTS = 100


class SynthError(ValueError):
    """Raised for unusable synthesis inputs."""


@dataclass(frozen=True, eq=False)
class SynthUtterance:
    """One rendered test utterance.

    ``targets`` is the corrupted phone string with ``<eow>`` after every
    word; ``features`` holds one frame per phone (boundaries have no frame).
    ``words`` is the clean reference for scoring.
    """

    uid: str
    words: tuple[str, ...]
    targets: tuple[str, ...]
    features: np.ndarray


@dataclass(frozen=True, eq=False)
class SynthTask:
    lexicon: PronLexicon
    lm: NGramModel
    utterances: tuple[SynthUtterance, ...]
    noise: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.noise < 1.0:
            raise SynthError(f"noise must be in [0, 1), got {self.noise}")


def real_phones(lexicon: PronLexicon) -> tuple[str, ...]:
    """The acoustic phone inventory: the phoneset minus epsilon and <eow>."""
    return tuple(p for p in lexicon.phoneset if p not in ("<eps>", EOW))


def _sample_sentence(rng, lm: NGramModel, allowed: list[int]) -> list[int]:
    hist = max(lm.order - 1, 0)
    for _ in range(_RESAMPLE_ATTEMPTS):
        ctx = (lm.bos_id,)[:hist]
        out: list[int] = []
        while len(out) < MAX_SENTENCE_WORDS:
            probs = np.array([math.exp(lm.conditional_logp(ctx, w)) for w in allowed])
            total = probs.sum()
            if total <= 0.0:
                names = tuple(lm.vocab.sym(w) for w in ctx)
                raise SynthError(
                    f"language model puts no mass on any lexicon word or </s> after {names}"
                )
            pick = allowed[int(rng.choice(len(allowed), p=probs / total))]
            if pick == lm.eos_id:
                break
            out.append(pick)
            ctx = (*ctx, pick)[-hist:] if hist else ()
        if out:
            return out
    raise SynthError(f"sampled {_RESAMPLE_ATTEMPTS} empty sentences in a row; raise P(word|<s>)")


def synth_corpus(
    seed: int, lexicon: PronLexicon, lm: NGramModel, count: int, noise: float
) -> SynthTask:
    """Sample ``count`` utterances, fully determined by ``seed``.

    Word sequences come from the model with its distribution masked to the
    lexicon's words (plus sentence end) and renormalized; pronunciations are
    chosen uniformly; each phone is confused with a uniformly random other
    phone at the noise rate; frames are the one-hot phones plus Gaussian
    noise of the same magnitude.
    """
    if count < 0:
        raise SynthError(f"count must be non-negative, got {count}")
    allowed = [lm.vocab.id(w) for w in lexicon.entries if w in lm.vocab]
    if not allowed:
        raise SynthError("the language model shares no vocabulary with the lexicon")
    allowed.append(lm.eos_id)
    phones = real_phones(lexicon)
    index = {p: k for k, p in enumerate(phones)}
    rng = np.random.default_rng(seed)
    utterances = []
    for idx in range(count):
        word_ids = _sample_sentence(rng, lm, allowed)
        words = tuple(lm.vocab.sym(w) for w in word_ids)
        targets: list[str] = []
        frames: list[str] = []
        for w in words:
            prons = lexicon.entries[w]
            pron = prons[int(rng.integers(len(prons)))]
            for ph in pron:
                if noise > 0.0 and rng.random() < noise:
                    others = [p for p in phones if p != ph]
                    if others:
                        ph = others[int(rng.integers(len(others)))]
                targets.append(ph)
                frames.append(ph)
            targets.append(EOW)
        feats = np.zeros((len(frames), len(phones)))
        for t, ph in enumerate(frames):
            feats[t, index[ph]] = 1.0
        if noise > 0.0:
            feats = feats + rng.normal(0.0, noise, feats.shape)
        utterances.append(SynthUtterance(f"utt{idx:04d}", words, tuple(targets), feats))
    return SynthTask(lexicon, lm, tuple(utterances), noise, seed)


def task_alphabet(task: SynthTask) -> SymbolTable:
    """Scorer alphabet for the task: phones, <eow>, then the control symbols."""
    return SymbolTable([*real_phones(task.lexicon), EOW, SOS, EOS])


def build_table_scorer(
    task: SynthTask,
    *,
    peak: float = 0.9,
    include_eow: bool = True,
    eow_floor: float = 0.0,
) -> tuple[TableScorer, list[Utterance]]:
    """Emission rows from each utterance's rendered targets.

    Every step puts ``peak`` on its target symbol and spreads the rest
    uniformly over the other phones, never over <eow> or <eos>: stray
    boundary or stop tokens would leave the lexicon-grammar lattice, and the
    two search flavors are only comparable when nothing emittable does.
    ``include_eow=False`` drops boundaries from the targets; ``eow_floor``
    then gives every row that much boundary mass, modeling an emitter that
    was never taught where words end.
    """
    if not 0.0 < peak <= 1.0:
        raise SynthError(f"peak must be in (0, 1], got {peak}")
    if eow_floor < 0.0 or peak + eow_floor > 1.0:
        raise SynthError(f"eow_floor {eow_floor} does not fit beside peak {peak}")
    if include_eow and eow_floor > 0.0:
        raise SynthError("eow_floor only applies when targets drop <eow>")
    alphabet = task_alphabet(task)
    phones = real_phones(task.lexicon)
    rows: dict[str, np.ndarray] = {}
    utts: list[Utterance] = []
    for sutt in task.utterances:
        targets = sutt.targets if include_eow else tuple(t for t in sutt.targets if t != EOW)
        seq = [*targets, EOS]
        table = np.zeros((len(seq), len(alphabet)))
        for i, sym in enumerate(seq):
            table[i, alphabet.id(sym)] = peak
            if eow_floor > 0.0:
                table[i, alphabet.id(EOW)] += eow_floor
            others = [p for p in phones if p != sym]
            spread = 1.0 - peak - eow_floor
            if others:
                for p in others:
                    table[i, alphabet.id(p)] += spread / len(others)
            else:
                table[i, alphabet.id(sym)] += spread
        rows[sutt.uid] = table
        reference = (*alphabet.encode(targets), alphabet.id(EOS))
        utts.append(Utterance(sutt.uid, sutt.features, reference))
    return TableScorer(alphabet, rows), utts


def save_task(task: SynthTask, path: str | Path) -> None:
    """Write the task as a directory of plain files, byte-deterministic."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    lines = []
    for word, prons in task.lexicon.entries.items():
        for pron in prons:
            lines.append(f"{word}\t{' '.join(pron)}")
    (path / "lexicon.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    task.lexicon.phoneset.write(path / "phones.syms")
    write_arpa(task.lm, path / "lm.arpa")
    with open(path / "utterances.jsonl", "w", encoding="utf-8") as fh:
        for utt in task.utterances:
            fh.write(
                json.dumps(
                    {
                        "uid": utt.uid,
                        "words": list(utt.words),
                        "targets": list(utt.targets),
                        "features": utt.features.tolist(),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    meta = {"noise": task.noise, "seed": task.seed, "count": len(task.utterances)}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@contextmanager
def _malformed(where: str | Path):
    """Re-raise a parse failure in the block as one ``SynthError`` naming
    ``where``."""
    try:
        yield
    except KeyError as e:
        raise SynthError(f"{where}: missing {e}") from None
    except (ValueError, TypeError) as e:
        raise SynthError(f"{where}: {e}") from None


def load_task(path: str | Path) -> SynthTask:
    """Read a task directory written by :func:`save_task`.  A malformed
    file raises ``SynthError`` naming it, and the line in
    ``utterances.jsonl``."""
    path = Path(path)
    phoneset = SymbolTable.read(path / "phones.syms")
    with _malformed(path / "lexicon.txt"):
        lexicon = parse_lexicon((path / "lexicon.txt").read_text(encoding="utf-8"), phoneset)
    lm = read_arpa(path / "lm.arpa")
    utterances = []
    first_line: dict[str, int] = {}
    with open(path / "utterances.jsonl", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            with _malformed(f"{path / 'utterances.jsonl'}:{lineno}"):
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise SynthError("expected a JSON object")
                uid, words, targets = obj["uid"], obj["words"], obj["targets"]
                if not (isinstance(uid, str) and _strings(words) and _strings(targets)):
                    raise SynthError("expected a string 'uid' and lists of strings 'words' and 'targets'")
                if uid in first_line:
                    raise SynthError(f"uid {uid!r} already used on line {first_line[uid]}")
                first_line[uid] = lineno
                features = as_features(obj["features"])
                utterances.append(SynthUtterance(uid, tuple(words), tuple(targets), features))
    with _malformed(path / "meta.json"):
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        return SynthTask(lexicon, lm, tuple(utterances), meta["noise"], meta["seed"])
