"""The benchmark's tracer must find every callable it wraps.

``bench/tracing.py`` times the package's layers by replacing named module
and class attributes.  A refactor that removes or renames one of them does
not break the benchmark run; it silently reports the affected per-layer
metrics as absent.  This test turns that into a failure here instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

import fusedec
from fusedec.decoder import DecodeConfig, DecodeResources, decode_batch
from fusedec.fst import SymbolTable
from fusedec.scorer import ToyLasModel, Utterance

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        utts = [Utterance(f"u{i}", np.full((3, 2), float(i)), (1,)) for i in range(2)]
        tracer.active, tracer.phase = True, "decode"
        decode_batch(model, DecodeResources(), utts, DecodeConfig(beam_width=2, max_steps=4))
        calls = tracer.take().calls
    finally:
        tracer.restore()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn
    assert calls["decode"] == 2
    assert calls["scorer.encode"] == 2
    assert calls["scorer.step"] > 2
    assert calls["scorer.model_step"] == calls["scorer.step"]
