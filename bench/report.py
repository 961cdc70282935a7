"""Turn timings and trace statistics into the benchmark's named metrics."""

from __future__ import annotations

import statistics

# name -> (unit, better); end-to-end metrics are measured with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "utts_per_s": ("1/s", "higher"),
    "utt_ms_p50": ("ms", "lower"),
    "utt_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, span the metric needs wrapped)
PER_LAYER = {
    "scorer.step_calls": ("count", "lower", "scorer.step"),
    "scorer.step_s": ("s", "lower", "scorer.step"),
    "scorer.model_steps": ("count", "lower", "scorer.model_step"),
    "scorer.encode_calls": ("count", "lower", "scorer.encode"),
    "scorer.replay_ratio": ("ratio", "lower", "scorer.step"),
    "scorer.train_s": ("s", "lower", "scorer.train"),
    "graph.advance_calls": ("count", "lower", "graph.advance"),
    "graph.advance_s": ("s", "lower", "graph.advance"),
    "graph.advance_distinct": ("count", "lower", "graph.advance"),
    "graph.advance_repeat_share": ("ratio", "lower", "graph.advance"),
    "graph.state_set_size": ("count", "lower", "graph.advance"),
    "graph.eps_closure_s": ("s", "lower", "graph.eps_closure"),
    "words.compose_calls": ("count", "lower", "words.compose"),
    "words.compose_s": ("s", "lower", "words.compose"),
    "words.shortest_paths_calls": ("count", "lower", "words.shortest_paths"),
    "words.shortest_paths_s": ("s", "lower", "words.shortest_paths"),
    "words.paths": ("count", "lower", "words.shortest_paths"),
    "words.unparsed": ("count", "lower", "decode"),
    "words.rescore_s": ("s", "lower", "words.rescore"),
    "beam.self_s": ("s", "lower", "beam"),
    "beam.expansions_per_utt": ("count", "lower", "scorer.step"),
    "resources.compose_s": ("s", "lower", "resources.compose"),
    "resources.relabel_s": ("s", "lower", "resources.relabel"),
    "ngram.read_arpa_s": ("s", "lower", "ngram.read_arpa"),
    "ngram.lm_to_fst_s": ("s", "lower", "ngram.lm_to_fst"),
    "lexicon.compile_s": ("s", "lower", "lexicon.compile"),
    "lg.states": ("count", "lower", None),
    "lg.arcs": ("count", "lower", None),
    "wer.align_calls": ("count", "lower", "wer.align"),
    "wer.align_s": ("s", "lower", "wer.align"),
    "sweep.point_s": ("s", "lower", "sweep.point"),
    "trace.overhead_share": ("ratio", "lower", None),
}


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(setups, rounds, ops, scale, peak_rss_mb: float) -> dict:
    """End-to-end metrics from raw timings; ``scale(start, seconds)`` turns a
    measured duration into seconds at the reference host speed.

    ``setups`` and each op's list hold (start, seconds) pairs; ``rounds``
    holds (start, seconds, seconds spent in decodes).  An op is one
    utterance decode at one place in the round and runs once per round; its
    latency is its median over rounds, an utterance's latency the median
    over its ops.  Throughput is a round's decodes over the sum of their
    latencies plus the round's median time outside decodes, so sweep
    scoring and batching count too.
    """
    lat = {op: statistics.median(scale(t, s) for t, s in reps) for op, reps in ops.items()}
    per_utt: dict[str, list[float]] = {}
    for (uid, _), t in lat.items():
        per_utt.setdefault(uid, []).append(t)
    utt = [statistics.median(v) for v in per_utt.values()]
    glue = statistics.median(scale(t, s) * (s - d) / s for t, s, d in rounds)
    values = {
        "setup_s": statistics.median(scale(t, s) for t, s in setups),
        "utts_per_s": len(lat) / (sum(lat.values()) + glue),
        "utt_ms_p50": 1e3 * _quantile(utt, 0.5),
        "utt_ms_p90": 1e3 * _quantile(utt, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def per_layer(setups, rounds, decodes: int, unparsed, lg, overhead: float, absent: set[str]) -> dict:
    """Counters come from the first traced round, which repeats exactly at
    a fixed seed; seconds are medians over traced rounds (set-up stages over
    set-ups).  A metric whose span could not be wrapped is left out."""
    first = rounds[0]

    def calls(span):
        return first.calls.get(span, 0)

    def secs(span, units=rounds):
        return statistics.median(u.total.get(span, 0.0) for u in units)

    steps = calls("scorer.step")
    advances = calls("graph.advance")
    values = {
        "scorer.step_calls": steps,
        "scorer.step_s": secs("scorer.step"),
        "scorer.model_steps": calls("scorer.model_step"),
        "scorer.encode_calls": calls("scorer.encode"),
        "scorer.replay_ratio": calls("scorer.model_step") / steps if steps else 0.0,
        "scorer.train_s": secs("scorer.train", setups),
        "graph.advance_calls": advances,
        "graph.advance_s": secs("graph.advance"),
        "graph.advance_distinct": len(first.advance_keys),
        "graph.advance_repeat_share": 1 - len(first.advance_keys) / advances if advances else 0.0,
        "graph.state_set_size": first.counts.get("graph.state_set_size_sum", 0) / advances if advances else 0.0,
        "graph.eps_closure_s": secs("graph.eps_closure"),
        "words.compose_calls": calls("words.compose"),
        "words.compose_s": secs("words.compose"),
        "words.shortest_paths_calls": calls("words.shortest_paths"),
        "words.shortest_paths_s": secs("words.shortest_paths"),
        "words.paths": first.counts.get("words.paths", 0),
        "words.unparsed": unparsed,
        "words.rescore_s": secs("words.rescore"),
        "beam.self_s": statistics.median(u.self_s.get("beam", 0.0) for u in rounds),
        "beam.expansions_per_utt": steps / decodes,
        "resources.compose_s": secs("resources.compose", setups),
        "resources.relabel_s": secs("resources.relabel", setups),
        "ngram.read_arpa_s": secs("ngram.read_arpa", setups),
        "ngram.lm_to_fst_s": secs("ngram.lm_to_fst", setups),
        "lexicon.compile_s": secs("lexicon.compile", setups),
        "lg.states": lg.num_states if lg is not None else 0,
        "lg.arcs": len(lg.arcs) if lg is not None else 0,
        "wer.align_calls": calls("wer.align"),
        "wer.align_s": secs("wer.align"),
        "sweep.point_s": (
            statistics.median(u.total.get("sweep.point", 0.0) / u.calls.get("sweep.point", 1) for u in rounds)
            if calls("sweep.point") else 0.0
        ),
        "trace.overhead_share": overhead,
    }
    if unparsed is None:
        absent = absent | {"decode"}
    out = {}
    for name, (unit, _, span) in PER_LAYER.items():
        if span is not None and span in absent:
            continue
        out[name] = {"value": values[name], "unit": unit}
    return out
