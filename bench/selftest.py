"""Show that each correctness check passes a good result and rejects a
deliberately corrupted copy of it.

    python3 bench/selftest.py

Run from the repository root.  Takes about half a minute, most of it the
acceptance-5 sweep at its own seed.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from fusedec import decoder, lexicon, ngram, scorer, sweep, synth  # noqa: E402
from fusedec.decoder import DecodeConfig, DecodeResources  # noqa: E402
from fusedec.fst import SymbolTable  # noqa: E402

import checks  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def homophone_decode():
    """The acceptance-3 fixture: 'I'/'eye' share a pronunciation."""
    text = "I\tay\neye\tay\nam\tae m\n"
    lm = ngram.train_ngram([["I", "am"]] * 3 + [["eye"]], 2, "absdisc")
    lex = lexicon.parse_lexicon(text)
    resources = DecodeResources(lexicon.compile_lexicon(lex, "required"), ngram.lm_to_fst(lm))
    alphabet = SymbolTable(["ay", "ae", "m", lexicon.EOW, "<sos>", "<eos>"])
    targets = ["ay", lexicon.EOW, "ae", "m", lexicon.EOW, "<eos>"]
    rows = np.full((len(targets), len(alphabet)), 0.0)
    for k, sym in enumerate(targets):
        rows[k, alphabet.id(sym)] = 0.7
        rows[k, alphabet.id("ay" if sym != "ay" else "m")] += 0.3
    table = scorer.TableScorer(alphabet, {"u0": rows})
    utt = scorer.Utterance("u0", np.zeros((1, 1)), alphabet.encode(targets))
    cfg = DecodeConfig(fusion="both", lm_weight=0.1, lm_weight_nbest=0.1)
    result = decoder.decode(table, resources, utt, cfg)
    return result, table, lm, workloads._prons(text)


def test_table_checks() -> None:
    result, table, lm, prons = homophone_decode()
    rows = table.rows["u0"]

    def problems(r):
        return checks.table_problems(r, rows, table.alphabet, prons, lexicon.EOW, False)

    def corrupt(**change):
        hyps = (dataclasses.replace(result.hypotheses[0], **change), *result.hypotheses[1:])
        return dataclasses.replace(result, hypotheses=hyps)

    top = result.hypotheses[0]
    expect(top.words == ("I", "am") and not problems(result), "table checks pass the homophone decode")
    expect(bool(problems(corrupt(model_score=top.model_score + 1e-6))), "re-summed model_score rejects a shifted score")
    expect(bool(problems(corrupt(total_cost=top.total_cost + 1e-6))), "total_cost identity rejects a shifted total")
    expect(bool(problems(corrupt(words=("I", "I")))), "segmentation rejects words that do not spell the tokens")
    expect(checks.lm_cost_exact(result, lm, ngram.score_sequence), "lm_cost check passes a bigram decode")
    expect(not checks.lm_cost_exact(corrupt(lm_cost=top.lm_cost - 0.01), lm, ngram.score_sequence),
           "lm_cost check rejects a shifted lattice cost")


def test_wer_check() -> None:
    pairs = [(("a", "b", "c"), ("a", "x", "c", "d")), (("a",), ())]
    good = sweep.corpus_wer(pairs)
    expect(not checks.wer_problems(pairs, good, "t"), "edit-distance recount agrees with corpus_wer")
    bad = dataclasses.replace(good, substitutions=good.substitutions + 1)
    expect(bool(checks.wer_problems(pairs, bad, "t")), "edit-distance recount rejects an extra substitution")


def test_probe_shows_backoff_fault(workdir: Path) -> None:
    table, utt, resources, lm, _ = workloads._probe(workdir)
    for cfg in workloads.TrigramLexicon.configs:
        result = decoder.decode(table, resources, utt, cfg)
        expect(result.words == workloads.PROBE_SENTENCE
               and not checks.lm_cost_exact(result, lm, ngram.score_sequence),
               f"order-3 probe ({cfg.fusion}) is flagged by the lm_cost check")


def test_dip() -> None:
    task = workloads.noisy_task(7, 200)
    table, utts = synth.build_table_scorer(task, peak=0.35)
    resources = DecodeResources(lexicon.compile_lexicon(task.lexicon, "optional"), ngram.lm_to_fst(task.lm))
    result = sweep.sweep_lmw(task, resources, DecodeConfig(eow_mode="optional"),
                             workloads.BEAM_GRID, "beam", scorer=table, utterances=utts)
    wers = [p.breakdown.wer for p in result.points]
    expect(checks.dips(wers), "acceptance-5 seed 7: the beam sweep dips below both endpoints")
    expect(not checks.dips(sorted(wers, reverse=True)), "dip check rejects a curve that only falls")


def test_las_checks(workdir: Path) -> None:
    las = workloads.LasDecode(1, workdir)
    model = scorer.ToyLasModel.init(las.alphabet, len(las.alphabet), seed=1)
    utt = las.utts[0]
    cfg = DecodeConfig(fusion="none", beam_width=2, max_steps=4)
    result = decoder.decode(model, DecodeResources(), utt, cfg)
    top = result.hypotheses[0]

    def problems(**change):
        hyps = (dataclasses.replace(top, **change), *result.hypotheses[1:])
        return checks.las_problems(dataclasses.replace(result, hypotheses=hyps), model, utt.features, las.alphabet)

    expect(not checks.las_problems(result, model, utt.features, las.alphabet), "decode_step re-score agrees with the beam")
    expect(bool(problems(model_score=top.model_score - 1e-6)), "decode_step re-score rejects a shifted score")
    expect(bool(problems(words=(*top.words, "sea"))), "grapheme split rejects an extra word")
    las.errors, las.words = 1, 40
    expect(bool(las.final_problems()), "WER check rejects 1 error in 40 words")
    las.errors = 0
    expect(not las.final_problems(), "WER check passes 0 errors")


def test_absent_callable() -> None:
    tracer = tracing.Tracer()
    old = types.SimpleNamespace(step_distributions=None)
    tracer.wrap(old, "step_distributions", "scorer.step")
    stats = tracing.Stats()
    stats.add("graph.advance", 1.0, 1.0)
    metrics = report.per_layer([stats], [stats], 1, 0, None, 0.0, set(tracer.absent))
    gone = {k for k, (_, _, span) in report.PER_LAYER.items() if span == "scorer.step"}
    expect("scorer.step" in tracer.absent and not gone & set(metrics) and "graph.advance_calls" in metrics,
           "a removed scorer callable leaves its metrics absent and the rest reported")


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        workdir = Path(tmp)
        test_table_checks()
        test_wer_check()
        test_probe_shows_backoff_fault(workdir)
        test_las_checks(workdir)
        test_absent_callable()
        test_dip()
    print(f"selftest: {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
