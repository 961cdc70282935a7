"""Beam-search decoding of sub-word sequence models with lexicon and LM fusion."""

__version__ = "0.1.0"

from .decoder import (
    DecodeConfig,
    DecodeError,
    DecodeResources,
    DecodeResult,
    FusionGraph,
    Hypothesis,
    NBestList,
    WordHypothesis,
    beam_search,
    decode,
    decode_batch,
    fused_beam_search,
    nbest_rescore,
)
from .fst import (
    Arc,
    FstError,
    FstPath,
    SymbolTable,
    WeightedFst,
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
from .lexicon import (
    EOW,
    LexiconError,
    PronLexicon,
    compile_lexicon,
    parse_lexicon,
    phones_to_words,
)
from .ngram import (
    NGramError,
    NGramModel,
    lm_to_fst,
    read_arpa,
    score_sequence,
    train_ngram,
    write_arpa,
)
from .scorer import (
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
)
from .sweep import SweepError, SweepPoint, SweepResult, sweep_csv, sweep_lmw, write_sweep_csv
from .synth import (
    SynthError,
    SynthTask,
    SynthUtterance,
    build_table_scorer,
    load_task,
    save_task,
    synth_corpus,
)
from .wer import WerBreakdown, align_wer, corpus_wer
