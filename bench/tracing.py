"""Spans and counters around fusedec's public callables, kept in memory.

The benchmark never edits the package: it replaces module and class
attributes with timing wrappers for the length of a run and puts the
originals back afterwards.  A callable that a later version removes or
renames is recorded as absent instead of failing the run, so the layer
metrics built on it are reported as absent too.

A span's self time is its duration minus the time covered by the spans it
caused.  Fine-grained spans (graph advances, model steps) are only
aggregated per name; coarse ones (set-up stages, sweep points, utterance
decodes) are also kept whole for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
import time

_clock = time.perf_counter


class Stats:
    """Per-name call count, total seconds and self seconds for one unit of
    work (one set-up or one round), plus free-form counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.advance_keys: set[int] = set()

    def add(self, name: str, dur: float, self_dur: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + self_dur

    def bump(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by


class Tracer:
    """Installs wrappers, keeps the span stack, and files every finished span
    into the current :class:`Stats`.

    ``active`` is False while the benchmark runs its own checks, so that
    re-scoring a hypothesis does not count as program work.  ``phase``
    ("setup" or "decode") names the spans of callables used in both, such as
    ``compose``.
    """

    COARSE = frozenset({"setup", "round", "sweep.point", "decode"})

    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.stats = Stats()
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, _clock(), 0.0, len(self.spans) if name in self.COARSE else -1]
        if frame[3] >= 0:
            self.spans.append((name, frame[1], 0.0, self._coarse_parent()))
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = _clock()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        self.stats.add(frame[0], dur, dur - frame[2])
        if frame[3] >= 0:
            name, start, _, parent = self.spans[frame[3]]
            self.spans[frame[3]] = (name, start, end, parent)

    def _coarse_parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one round."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``name`` is a string or a dict from phase to span name.  ``after``,
        if given, is called as ``after(stats, args, result)`` on each traced
        call to update counters.  A missing attribute is recorded as absent.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            where = f"{getattr(owner, '__name__', owner)}.{attr}"
            for label in [name] if isinstance(name, str) else name.values():
                self.absent[label] = where
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name[tracer.phase]
            frame = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer.stats, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def take(self) -> Stats:
        """Hand back the finished unit's stats and start a fresh one."""
        done, self.stats = self.stats, Stats()
        return done


def _count_advance(stats: Stats, args, result) -> None:
    _, states, label = args
    stats.advance_keys.add(hash((states, label)))
    stats.bump("graph.state_set_size_sum", len(states))


def _count_paths(stats: Stats, args, result) -> None:
    stats.bump("words.paths", len(result))


def install(tracer: Tracer, fusedec) -> None:
    """Wrap every layer boundary the per-layer metrics are built from.

    Names imported into ``decoder`` and ``sweep`` are wrapped where those
    modules look them up, because that is where the program calls them.
    """
    decoder, scorer = fusedec.decoder, fusedec.scorer
    w = tracer.wrap
    # beam search and the scorer
    w(decoder, "_expand", "beam")
    w(decoder, "step_distributions", "scorer.step")
    w(decoder, "coverage_count", "scorer.coverage")
    w(scorer.ToyLasModel, "decode_step", "scorer.model_step")
    w(scorer.ToyLasModel, "encode", "scorer.encode")
    w(scorer, "train_model", "scorer.train")
    w(scorer, "save_checkpoint", "scorer.save")
    w(scorer, "load_checkpoint", "scorer.load")
    # the fusion graph
    w(decoder.FusionGraph, "advance", "graph.advance", after=_count_advance)
    w(decoder, "_eps_closure", "graph.eps_closure")
    # word recovery, and the same fst calls when resources are built
    w(decoder, "compose", {"setup": "resources.compose", "decode": "words.compose"})
    w(decoder, "relabel", "resources.relabel")
    w(decoder, "linear_fst", "words.chain")
    w(decoder, "shortest_paths", "words.shortest_paths", after=_count_paths)
    w(decoder, "nbest_rescore", "words.rescore")
    w(decoder, "_best_words", "words.best")
    w(decoder.DecodeResources, "graph_for", "resources.graph_for")
    # set-up from text files
    w(fusedec.ngram, "read_arpa", "ngram.read_arpa")
    w(fusedec.ngram, "lm_to_fst", "ngram.lm_to_fst")
    w(fusedec.lexicon, "parse_lexicon", "lexicon.parse")
    w(fusedec.lexicon, "compile_lexicon", "lexicon.compile")
    # inputs, scoring and sweeps
    w(fusedec.synth, "synth_corpus", "synth.corpus")
    w(fusedec.synth, "build_table_scorer", "synth.table")
    w(fusedec.wer, "align_wer", "wer.align")
    w(fusedec.sweep, "corpus_wer", "wer.corpus")
    w(fusedec.sweep, "decode_batch", "sweep.point")
    w(decoder, "decode", "decode")


class DecodeLog:
    """Times every utterance decode and keeps its result for the checks.

    This is the only wrapper an untraced run installs: one clock pair per
    utterance, against decodes that take milliseconds or more.  ``before``
    runs ahead of each decode, outside its timing.
    """

    def __init__(self, decoder, before=None):
        self.records: list[tuple[str, float, float, object]] = []
        self._decoder, self._decode = decoder, decoder.decode
        decode = decoder.decode

        @functools.wraps(decode)
        def timed(*args, **kwargs):
            if before is not None:
                before()
            t0 = _clock()
            result = decode(*args, **kwargs)
            self.records.append((result.uid, t0, _clock() - t0, result))
            return result

        decoder.decode = timed

    def restore(self) -> None:
        self._decoder.decode = self._decode
