import numpy as np
import pytest

import fusedec.sweep as sweep_mod
from fusedec.decoder import DecodeConfig, DecodeError, DecodeResources
from fusedec.lexicon import compile_lexicon, parse_lexicon
from fusedec.ngram import lm_to_fst, train_ngram
from fusedec.scorer import Utterance
from fusedec.sweep import (
    CSV_HEADER,
    SweepError,
    SweepPoint,
    SweepResult,
    sweep_csv,
    sweep_lmw,
    write_sweep_csv,
)
from fusedec.synth import SynthTask, build_table_scorer, synth_corpus
from fusedec.wer import WerBreakdown

LEX_TEXT = "sun\ts u n\nsea\ts i\ntide\tt i d\nlow\tl o\n"
LM_CORPUS = [
    ["sun", "sea"],
    ["tide", "low"],
    ["sun", "tide"],
    ["low", "sea"],
    ["sun"],
    ["sea", "tide", "low"],
]


@pytest.fixture(scope="module")
def setup():
    lexicon = parse_lexicon(LEX_TEXT)
    lm = train_ngram(LM_CORPUS, order=2, smoothing="absdisc")
    resources = DecodeResources(compile_lexicon(lexicon, "required"), lm_to_fst(lm))
    return lexicon, lm, resources


@pytest.fixture(scope="module")
def clean_task(setup):
    lexicon, lm, _ = setup
    return synth_corpus(7, lexicon, lm, 10, 0.0)


class TestValidation:
    def test_unknown_kind(self, setup, clean_task):
        _, _, resources = setup
        with pytest.raises(SweepError, match="which"):
            sweep_lmw(clean_task, resources, DecodeConfig(), [0.1], "late")

    def test_empty_grid(self, setup, clean_task):
        _, _, resources = setup
        with pytest.raises(SweepError, match="non-empty"):
            sweep_lmw(clean_task, resources, DecodeConfig(), [], "beam")

    def test_split_requires_pairs(self, setup, clean_task):
        _, _, resources = setup
        with pytest.raises(SweepError, match="pairs"):
            sweep_lmw(clean_task, resources, DecodeConfig(), [(0.1, 0.0, 0.0)], "split")

    def test_split_requires_constant_sum(self, setup, clean_task):
        _, _, resources = setup
        with pytest.raises(SweepError, match="sums vary"):
            sweep_lmw(clean_task, resources, DecodeConfig(), [(0.1, 0.0), (0.1, 0.1)], "split")

    def test_a_refused_weight_fails_before_the_first_decode(self, setup, clean_task, monkeypatch):
        _, _, resources = setup
        decoded = []
        monkeypatch.setattr(sweep_mod, "decode_batch", lambda *args: decoded.append(args))
        with pytest.raises(DecodeError, match="non-negative"):
            sweep_lmw(clean_task, resources, DecodeConfig(), [0.0, 0.1, -1.0], "beam")
        assert decoded == []

    def test_scorer_without_utterances(self, setup, clean_task):
        _, _, resources = setup
        with pytest.raises(SweepError, match="together"):
            sweep_lmw(clean_task, resources, DecodeConfig(), [0.1], "beam", scorer=object())


class TestCurves:
    def test_zero_noise_curve_is_flat_zero(self, setup, clean_task):
        _, _, resources = setup
        grid = [0.0, 0.1, 0.2]
        result = sweep_lmw(clean_task, resources, DecodeConfig(), grid, "beam")
        assert len(result.points) == 3
        assert all(p.breakdown.wer == 0.0 for p in result.points)
        assert result.argmin is result.points[0]

    def test_tie_argmin_prefers_smallest_weight_not_grid_order(self, setup, clean_task):
        _, _, resources = setup
        result = sweep_lmw(clean_task, resources, DecodeConfig(), [0.2, 0.0, 0.1], "beam")
        assert result.argmin is result.points[1]

    def test_nbest_points_carry_only_nbest_weight(self, setup, clean_task):
        _, _, resources = setup
        result = sweep_lmw(clean_task, resources, DecodeConfig(), [0.0, 0.05], "nbest")
        for p in result.points:
            assert p.lambda_beam is None
            assert p.lambda_nbest is not None

    def test_split_points_carry_both_weights(self, setup, clean_task):
        _, _, resources = setup
        grid = [(0.0, 0.1), (0.05, 0.05), (0.1, 0.0)]
        result = sweep_lmw(clean_task, resources, DecodeConfig(), grid, "split")
        assert [(p.lambda_beam, p.lambda_nbest) for p in result.points] == grid
        assert all(p.breakdown is not None for p in result.points)

    def test_noisy_curve_entries_are_all_scored(self, setup):
        lexicon, lm, resources = setup
        task = synth_corpus(3, lexicon, lm, 15, 0.25)
        result = sweep_lmw(task, resources, DecodeConfig(), [0.0, 0.1, 0.3], "nbest")
        assert all(p.breakdown is not None for p in result.points)
        assert all(p.breakdown.ref_count > 0 for p in result.points)

    def test_failed_point_is_recorded_not_fatal(self, setup, clean_task, monkeypatch):
        _, _, resources = setup
        real = sweep_mod.decode_batch

        def flaky(scorer, res, utts, cfg):
            if cfg.lm_weight == 0.1:
                raise ValueError("synthetic failure")
            return real(scorer, res, utts, cfg)

        monkeypatch.setattr(sweep_mod, "decode_batch", flaky)
        result = sweep_lmw(clean_task, resources, DecodeConfig(), [0.0, 0.1, 0.2], "beam")
        assert result.points[1].breakdown is None
        assert result.points[1].error == "synthetic failure"
        assert result.points[0].breakdown is not None
        assert result.points[2].breakdown is not None
        assert result.argmin is result.points[0]


class TestArgmin:
    """``argmin`` ranks scored points by (wer, swept weight, grid index)."""

    LOW, HIGH = WerBreakdown(1, 0, 0, 4), WerBreakdown(2, 0, 0, 4)

    def test_ties_go_to_the_smaller_beam_weight_then_the_earlier_point(self):
        points = (
            SweepPoint(0.2, 0.0, self.LOW),
            SweepPoint(0.1, 0.1, self.LOW),
            SweepPoint(0.1, 0.1, self.LOW),
            SweepPoint(0.0, 0.2, self.HIGH),
        )
        assert SweepResult("split", points).argmin is points[1]

    def test_nbest_points_rank_by_their_nbest_weight(self):
        points = (SweepPoint(None, 0.3, self.LOW), SweepPoint(None, 0.1, self.LOW))
        assert SweepResult("nbest", points).argmin is points[1]

    def test_failed_points_are_skipped(self):
        failed = SweepPoint(0.0, None, None, error="boom")
        assert SweepResult("beam", (failed, SweepPoint(0.5, None, self.HIGH))).argmin.lambda_beam == 0.5
        assert SweepResult("beam", (failed,)).argmin is None


class TestUtteranceSubsets:
    """Each decode is scored against the reference of its own uid, whatever
    the order of the utterances passed and wherever they sit in the task."""

    @staticmethod
    def breakdowns(task, resources, scorer, utts):
        result = sweep_lmw(
            task, resources, DecodeConfig(), [0.0, 0.3], "beam", scorer=scorer, utterances=list(utts)
        )
        return [p.breakdown for p in result.points]

    def test_reversed_and_trailing_subsets_score_like_task_order(self, setup):
        lexicon, lm, resources = setup
        task = synth_corpus(3, lexicon, lm, 15, 0.25)
        scorer, utts = build_table_scorer(task)
        in_order = self.breakdowns(task, resources, scorer, utts)
        assert self.breakdowns(task, resources, scorer, utts[::-1]) == in_order
        tail = SynthTask(task.lexicon, task.lm, task.utterances[9:], task.noise, task.seed)
        want = self.breakdowns(tail, resources, scorer, utts[9:])
        assert want[0].ref_count == sum(len(u.words) for u in tail.utterances)
        assert self.breakdowns(task, resources, scorer, utts[9:]) == want
        assert self.breakdowns(task, resources, scorer, utts[9:][::-1]) == want

    def test_utterance_missing_from_the_task_is_refused_before_decoding(
        self, setup, clean_task, monkeypatch
    ):
        _, _, resources = setup
        scorer, utts = build_table_scorer(clean_task)
        stranger = Utterance("stranger", utts[0].features, utts[0].reference)

        def no_decode(*args):
            raise AssertionError("decoded before refusing")

        monkeypatch.setattr(sweep_mod, "decode_batch", no_decode)
        with pytest.raises(SweepError, match="'stranger' is not in the task"):
            sweep_lmw(
                clean_task, resources, DecodeConfig(), [0.1], "beam",
                scorer=scorer, utterances=[*utts[:2], stranger],
            )


class TestCsv:
    def test_header_and_shape(self, setup, clean_task):
        _, _, resources = setup
        grid = [(0.0, 0.1), (0.1, 0.0)]
        result = sweep_lmw(clean_task, resources, DecodeConfig(), grid, "split")
        text = sweep_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("0.0,0.1,")
        cells = lines[1].split(",")
        assert len(cells) == 6

    def test_beam_rows_leave_nbest_cell_empty(self, setup, clean_task):
        _, _, resources = setup
        result = sweep_lmw(clean_task, resources, DecodeConfig(), [0.1], "beam")
        row = sweep_csv(result).strip().split("\n")[1]
        assert row.split(",")[1] == ""

    def test_bytes_are_deterministic(self, setup, tmp_path):
        lexicon, lm, resources = setup
        outs = []
        for name in ("a.csv", "b.csv"):
            task = synth_corpus(5, lexicon, lm, 8, 0.2)
            result = sweep_lmw(task, resources, DecodeConfig(), [0.0, 0.1], "nbest")
            write_sweep_csv(result, tmp_path / name)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_failed_point_leaves_stat_cells_empty(self, setup, clean_task, monkeypatch):
        _, _, resources = setup
        monkeypatch.setattr(
            sweep_mod,
            "decode_batch",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")),
        )
        result = sweep_lmw(clean_task, resources, DecodeConfig(), [0.1], "beam")
        row = sweep_csv(result).strip().split("\n")[1]
        assert row == "0.1,,,,,"
