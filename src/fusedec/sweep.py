"""Grid sweeps over language-model weights, reported as WER curves."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .decoder import DecodeConfig, DecodeResources, decode_batch
from .synth import SynthTask, build_table_scorer
from .wer import WerBreakdown, corpus_wer

SWEEP_KINDS = ("beam", "nbest", "split")
CSV_HEADER = "lambda_beam,lambda_nbest,wer,del,ins,sub"


class SweepError(ValueError):
    """Raised for an unusable sweep request."""


@dataclass(frozen=True)
class SweepPoint:
    """One grid entry: the weights tried and what they scored.

    ``error`` carries the decode failure message when the point could not
    be evaluated; its breakdown is then None.
    """

    lambda_beam: float | None
    lambda_nbest: float | None
    breakdown: WerBreakdown | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    which: str
    points: tuple[SweepPoint, ...]

    @property
    def argmin(self) -> SweepPoint | None:
        """The lowest-WER point; ties go to the smaller swept weight (the
        beam weight, or the n-best weight when no beam weight is set), then
        to the earlier grid entry.  None when every point failed."""
        scored = [
            (p.breakdown.wer, p.lambda_nbest if p.lambda_beam is None else p.lambda_beam, i)
            for i, p in enumerate(self.points)
            if p.breakdown is not None
        ]
        return self.points[min(scored)[2]] if scored else None


def _point_config(base: DecodeConfig, which: str, entry) -> tuple[DecodeConfig, float, float | None]:
    if which == "beam":
        lam = float(entry)
        cfg = dataclasses.replace(base, fusion="beam", lm_weight=lam, lm_weight_nbest=None)
        return cfg, lam, None
    if which == "nbest":
        lam = float(entry)
        cfg = dataclasses.replace(base, fusion="nbest", lm_weight=0.0, lm_weight_nbest=lam)
        return cfg, None, lam
    lb, ln = (float(entry[0]), float(entry[1]))
    cfg = dataclasses.replace(base, fusion="both", lm_weight=lb, lm_weight_nbest=ln)
    return cfg, lb, ln


def sweep_lmw(
    task: SynthTask,
    resources: DecodeResources,
    config: DecodeConfig,
    grid: Sequence,
    which: str,
    *,
    scorer=None,
    utterances=None,
) -> SweepResult:
    """Decode the whole task at every grid point and score each curve entry.

    ``which`` picks where the weight applies: inside the search (beam), at
    rescoring (nbest), or split across both, in which case grid entries are
    (lambda_beam, lambda_nbest) pairs whose sum must be constant.  The
    task's default emission table is used unless a prepared ``scorer`` and
    its ``utterances`` are passed together; those may be any of the task's
    utterances in any order, each scored against the reference of its uid.
    A weight the decoder refuses raises ``DecodeError`` before the first
    decode; a point whose decode fails is recorded on its curve entry
    rather than aborting the sweep.
    """
    if which not in SWEEP_KINDS:
        raise SweepError(f"which must be one of {SWEEP_KINDS}, got {which!r}")
    if not grid:
        raise SweepError("grid must be non-empty")
    if which == "split":
        sums = []
        for entry in grid:
            if len(entry) != 2:
                raise SweepError("split grid entries are (lambda_beam, lambda_nbest) pairs")
            sums.append(float(entry[0]) + float(entry[1]))
        if max(sums) - min(sums) > 1e-12:
            raise SweepError(f"split grid sums vary: {min(sums)} vs {max(sums)}")
    if (scorer is None) != (utterances is None):
        raise SweepError("scorer and utterances must be passed together")
    if scorer is None:
        scorer, utterances = build_table_scorer(task)
    refs = {u.uid: u.words for u in task.utterances}
    for utt in utterances:
        if utt.uid not in refs:
            raise SweepError(f"utterance {utt.uid!r} is not in the task")
    configs = [_point_config(config, which, entry) for entry in grid]
    points = []
    for cfg, lb, ln in configs:
        try:
            results = decode_batch(scorer, resources, utterances, cfg)
            breakdown = corpus_wer([(refs[res.uid], res.words) for res in results])
            points.append(SweepPoint(lb, ln, breakdown))
        except ValueError as e:
            points.append(SweepPoint(lb, ln, None, error=str(e)))
    return SweepResult(which, tuple(points))


def sweep_csv(result: SweepResult) -> str:
    """The curve as CSV text, one row per grid point in grid order."""
    lines = [CSV_HEADER]
    for p in result.points:
        cells = [
            "" if p.lambda_beam is None else repr(p.lambda_beam),
            "" if p.lambda_nbest is None else repr(p.lambda_nbest),
        ]
        if p.breakdown is None:
            cells += ["", "", "", ""]
        else:
            b = p.breakdown
            cells += [repr(b.wer), str(b.deletions), str(b.insertions), str(b.substitutions)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    Path(path).write_text(sweep_csv(result), encoding="utf-8")
