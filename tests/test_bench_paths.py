"""The benchmark must keep working against the package.

``bench/tracing.py`` times the package's layers by replacing named module
and class attributes.  A refactor that removes or renames one of them does
not break the benchmark run; it silently reports the affected per-layer
metrics as absent.  These tests turn that into a failure here instead, and
run a few decodes of the table workloads the way ``bench/workloads.py``
makes them, so a change the benchmark cannot run under fails here too.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fusedec
from fusedec.decoder import DecodeConfig, DecodeResources, decode_batch
from fusedec.fst import SymbolTable
from fusedec.lexicon import EOW, compile_lexicon, parse_lexicon
from fusedec.ngram import lm_to_fst, train_ngram
from fusedec.scorer import TableScorer, ToyLasModel, Utterance

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_bench("tracing")


def test_tracer_wraps_every_name_and_sees_the_scorer_steps():
    tracing = _load_tracing()
    originals = {
        (owner, attr): getattr(owner, attr)
        for owner, attr in [
            (fusedec.decoder, "step_distributions"),
            (fusedec.decoder, "coverage_count"),
            (fusedec.decoder, "decode"),
            (ToyLasModel, "decode_step"),
            (ToyLasModel, "encode"),
        ]
    }
    tracer = tracing.Tracer()
    tracing.install(tracer, fusedec)
    try:
        assert tracer.absent == {}
        alphabet = SymbolTable(["a", "b", "<space>", "<sos>", "<eos>"])
        model = ToyLasModel.init(alphabet, 2, enc_hidden=3, dec_hidden=3, att_dim=2, embed_dim=2)
        utts = [Utterance(f"u{i}", np.full((3, 2), float(i)), (1, alphabet.id("<eos>"))) for i in range(2)]
        # training shares the forward pass with decoding, but must not show
        # up as encodes or model steps
        tracer.active = True
        fusedec.scorer.train_model(model, utts, 2)
        training = tracer.take().calls
        tracer.phase = "decode"
        # the step counts of the states of each scorer step, seen under the tracer
        depths, step = [], model.step

        def recorded(states, tokens):
            depths.append({state.steps for state in states})
            return step(states, tokens)

        model.step = recorded
        decode_batch(model, DecodeResources(), utts, DecodeConfig(beam_width=2, max_steps=4))
        calls = tracer.take().calls
    finally:
        tracer.restore()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn
    assert training["scorer.train"] == 1
    assert training.get("scorer.encode", 0) == 0
    assert training.get("scorer.model_step", 0) == 0
    assert calls["decode"] == 2
    assert calls["scorer.encode"] == 2
    # a beam steps all its live hypotheses at once, one scorer step per
    # depth, and never through the single-state decode_step
    assert calls["scorer.step"] == len(depths) > 2
    starts = [i for i, d in enumerate(depths) if d == {0}]
    assert len(starts) == 2
    for first, end in zip(starts, [*starts[1:], len(depths)]):
        assert depths[first:end] == [{d} for d in range(end - first)]
    assert calls.get("scorer.model_step", 0) == 0


def test_word_recovery_composes_nothing_under_the_tracer():
    tracing = _load_tracing()
    lex = parse_lexicon("I\tay\neye\tay\nam\tae m\n")
    lm = train_ngram([["I", "am"]] * 3 + [["eye"]], order=2, smoothing="absdisc")
    alphabet = SymbolTable(["ay", "ae", "m", EOW, "<sos>", "<eos>"])
    rows = np.zeros((6, len(alphabet)))
    for t, sym in enumerate(["ay", EOW, "ae", "m", EOW, "<eos>"]):
        rows[t, alphabet.id(sym)] = 1.0
    scorer = TableScorer(alphabet, {"u0": rows})
    utts = [Utterance("u0", np.zeros((1, 1)), (1,))]
    configs = [
        DecodeConfig(fusion="nbest", lm_weight_nbest=0.1),
        DecodeConfig(fusion="beam", lm_weight=0.1),
        DecodeConfig(fusion="both", lm_weight=0.05, lm_weight_nbest=0.05),
    ]
    tracer = tracing.Tracer()
    tracing.install(tracer, fusedec)
    try:
        resources = DecodeResources(compile_lexicon(lex, "required"), lm_to_fst(lm))
        tracer.active, tracer.phase = True, "decode"
        results = [decode_batch(scorer, resources, utts, cfg)[0] for cfg in configs]
        calls = tracer.take().calls
    finally:
        tracer.restore()
    assert all(r.words == ("I", "am") for r in results)
    assert calls["decode"] == 3
    assert calls["words.rescore"] == 2
    assert calls["words.best"] > 0
    for name in ("words.compose", "words.chain", "words.shortest_paths"):
        assert calls.get(name, 0) == 0


@pytest.mark.parametrize("name", ["noisy_sweep", "trigram_lexicon"])
def test_table_workload_rounds_decode_cleanly(name, tmp_path, monkeypatch):
    """Five utterances of a table workload at seed 1 go through its own
    round twice on one set-up, as the benchmark times them: first with the
    fusion graph's state sets still to be built, then with them cached.
    For ``trigram_lexicon`` a round also decodes the order-3 probe under
    both of its configs.  Nothing raises, no sweep point fails, every
    decode passes the benchmark's model-score, cost and spelling checks,
    and the warm round decodes exactly what the cold one did.  The probe's
    lm_cost gap is a known fault and is not checked."""
    monkeypatch.syspath_prepend(str(_BENCH))
    workloads, tracing = _load_bench("workloads"), _load_tracing()
    workload = workloads.WORKLOADS[name](1, tmp_path)
    state = workload.setup()
    workload.utts = workload.utts[:5]
    if name == "noisy_sweep":
        points = len(workloads.BEAM_GRID) + len(workloads.SPLIT_GRID)
        decodes = 5 * points
        sources = {}
    else:
        points, decodes = 0, 6 * len(workload.configs)
        probe_table, _, _, _, probe_prons = workload.probe
        sources = {workloads.PROBE_UID: (probe_table, probe_prons)}
    optional = workload.eow_mode == "optional"
    rounds = []
    for _ in ("cold", "warm"):
        log = tracing.DecodeLog(fusedec.decoder)
        try:
            output = workload.run_round(state)
        finally:
            log.restore()
        if name == "noisy_sweep":
            assert [p.error for result in output for p in result.points] == [None] * points
        assert len(log.records) == decodes
        for uid, _, _, result in log.records:
            table, prons = sources.get(uid, (workload.table, workload.prons))
            problems = workloads.checks.table_problems(
                result, table.rows[uid], table.alphabet, prons, workloads.EOW, optional
            )
            assert problems == []
        rounds.append([result.to_dict() for _, _, _, result in log.records])
    assert rounds[0] == rounds[1]
