"""End-to-end checks of the command line front end.

A module-scoped pipeline fixture runs compile-lexicon, train-lm, and synth
once on the two-way homophone fixture; the tests then exercise decode,
sweep, score, and train-scorer on top of it, plus the exit-code contract
and byte-level reproducibility of reruns.
"""

import json
import math

import pytest

from fusedec.cli import main
from fusedec.fst import SymbolTable, read_fst_text
from fusedec.ngram import read_arpa, score_sequence
from fusedec.synth import load_task
from fusedec.wer import corpus_wer

LEXICON = "I\tay\neye\tay\nam\tae m\n"
CORPUS = "I am\nI am\nI am\neye\n"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "lexicon.txt").write_text(LEXICON, encoding="utf-8")
    (root / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    assert main([
        "compile-lexicon", "--lexicon", str(root / "lexicon.txt"),
        "--out", str(root / "l.fst"),
    ]) == 0
    assert main([
        "train-lm", "--corpus", str(root / "corpus.txt"),
        "--order", "2", "--out", str(root / "lm.arpa"),
    ]) == 0
    assert main([
        "synth", "--lexicon", str(root / "lexicon.txt"), "--lm", str(root / "lm.arpa"),
        "--count", "12", "--noise", "0", "--seed", "7", "--out", str(root / "task"),
    ]) == 0
    return root


def decode_args(root, out, *extra):
    return [
        "decode", "--task", str(root / "task"),
        "--lexicon", str(root / "lexicon.txt"), "--lm", str(root / "lm.arpa"),
        "--out", str(out), *extra,
    ]


class TestArtifacts:
    def test_compiled_lexicon_files(self, pipeline):
        isyms = SymbolTable.read(pipeline / "l.fst.isyms")
        osyms = SymbolTable.read(pipeline / "l.fst.osyms")
        fst = read_fst_text(pipeline / "l.fst", isyms, osyms)
        assert "ay" in isyms and "<eow>" in isyms
        assert "eye" in osyms and "am" in osyms
        assert fst.final(fst.start) == 0.0

    def test_trained_lm_matches_library_result(self, pipeline):
        lm = read_arpa(pipeline / "lm.arpa")
        assert lm.order == 2
        # discounted bigram routes for the fixture corpus, in exact fractions
        expected = math.log(31 / 44) + math.log(149 / 165) + math.log(151 / 165)
        assert score_sequence(lm, ["I", "am"]) == pytest.approx(expected, abs=1e-9)

    def test_synth_task_loads(self, pipeline):
        task = load_task(pipeline / "task")
        assert len(task.utterances) == 12
        assert all(set(utt.words) <= {"I", "eye", "am"} for utt in task.utterances)

    def test_manifest_shape(self, pipeline):
        manifest = json.loads((pipeline / "lm.arpa.manifest.json").read_text())
        assert manifest["command"] == "train-lm"
        assert manifest["config"]["order"] == 2
        assert manifest["seed"] is None
        assert str(pipeline / "corpus.txt") in manifest["inputs"]
        assert len(next(iter(manifest["inputs"].values()))) == 64

    def test_task_manifest_digests_directory_inputs(self, pipeline):
        manifest = json.loads((pipeline / "task" / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert str(pipeline / "lexicon.txt") in manifest["inputs"]


class TestDecodeCommand:
    def test_quickstart_recovers_homophone_sentence(self, pipeline, tmp_path):
        out = tmp_path / "results.jsonl"
        code = main(decode_args(pipeline, out, "--fusion", "nbest", "--lm-weight-nbest", "0.1"))
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        task = load_task(pipeline / "task")
        refs = {utt.uid: list(utt.words) for utt in task.utterances}
        assert len(records) == len(refs)
        sentences = [r for r in records if refs[r["uid"]] == ["I", "am"]]
        assert sentences, "fixture corpus is dominated by the target sentence"
        assert all(r["words"] == ["I", "am"] for r in sentences)

    def test_rerun_is_byte_identical_and_manifest_differs_only_in_timing(self, pipeline, tmp_path):
        out = tmp_path / "results.jsonl"
        args = decode_args(pipeline, out, "--fusion", "nbest", "--lm-weight-nbest", "0.1")
        assert main(args) == 0
        first = out.read_bytes()
        first_manifest = json.loads((tmp_path / "results.jsonl.manifest.json").read_text())
        assert main(args) == 0
        assert out.read_bytes() == first
        second_manifest = json.loads((tmp_path / "results.jsonl.manifest.json").read_text())
        first_manifest.pop("duration_s")
        second_manifest.pop("duration_s")
        assert first_manifest == second_manifest

    def test_beam_fusion_and_width_one(self, pipeline, tmp_path):
        out = tmp_path / "beam.jsonl"
        code = main(decode_args(
            pipeline, out, "--fusion", "beam", "--lm-weight", "0.1", "--beam-width", "1",
        ))
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(len(r["nbest"]) >= 1 for r in records)
        assert all(r["config"]["beam_width"] == 1 for r in records)

    def test_fused_mode_without_lexicon_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main([
            "decode", "--task", str(pipeline / "task"), "--fusion", "beam",
            "--lm-weight", "0.1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "requires --lexicon and --lm" in capsys.readouterr().err

    def test_fusion_none_needs_grapheme_alphabet(self, pipeline, tmp_path, capsys):
        code = main([
            "decode", "--task", str(pipeline / "task"), "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 1
        assert "<space>" in capsys.readouterr().err

    def test_mismatched_lexicon_names_the_symbol(self, pipeline, tmp_path, capsys):
        other = tmp_path / "other.txt"
        other.write_text("zz\tqq\n", encoding="utf-8")
        code = main([
            "decode", "--task", str(pipeline / "task"), "--lexicon", str(other),
            "--lm", str(pipeline / "lm.arpa"), "--fusion", "nbest",
            "--lm-weight-nbest", "0.1", "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "qq" in err or "zz" in err

    def test_conflicting_weight_flags_are_usage_errors(self, pipeline, tmp_path, capsys):
        code = main(decode_args(
            pipeline, tmp_path / "x.jsonl", "--fusion", "nbest", "--lm-weight", "0.1",
        ))
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_exits_two(self, pipeline):
        with pytest.raises(SystemExit) as err:
            main(["decode", "--task", str(pipeline / "task")])
        assert err.value.code == 2


class TestSweepCommand:
    def test_nbest_sweep_writes_curve(self, pipeline, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "nbest", "--grid", "0,0.1,0.2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda_beam,lambda_nbest,wer,del,ins,sub"
        assert len(lines) == 4
        assert lines[1].startswith(",0.0,")

    def test_split_sweep_round_trips_grid_sum(self, pipeline, tmp_path):
        out = tmp_path / "split.csv"
        code = main([
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "split", "--grid", "0,0.05,0.1", "--grid-sum", "0.1",
            "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(abs(float(a) + float(b) - 0.1) < 1e-12 for a, b, *_ in rows)

    def test_split_without_grid_sum_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main([
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "split", "--grid", "0,0.05", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "--grid-sum" in capsys.readouterr().err

    def test_grid_sum_outside_split_is_usage_error(self, pipeline, tmp_path):
        code = main([
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "nbest", "--grid", "0,0.05", "--grid-sum", "0.1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_malformed_grid_is_usage_error(self, pipeline, tmp_path, capsys):
        code = main([
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "nbest", "--grid", "0,oops", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "--grid" in capsys.readouterr().err

    def test_sweep_rerun_is_byte_identical(self, pipeline, tmp_path):
        args = [
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "beam", "--grid", "0,0.1", "--out", str(tmp_path / "c.csv"),
        ]
        assert main(args) == 0
        first = (tmp_path / "c.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "c.csv").read_bytes() == first


class TestScoreCommand:
    def test_score_matches_library_wer(self, pipeline, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        assert main(decode_args(pipeline, results, "--fusion", "nbest", "--lm-weight-nbest", "0.1")) == 0
        out = tmp_path / "score.json"
        code = main([
            "score", "--task", str(pipeline / "task"), "--results", str(results),
            "--out", str(out),
        ])
        assert code == 0
        assert "wer" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        task = load_task(pipeline / "task")
        refs = {utt.uid: utt.words for utt in task.utterances}
        pairs = [
            (refs[r["uid"]], r["words"])
            for r in map(json.loads, results.read_text().splitlines())
        ]
        expected = corpus_wer(pairs)
        assert payload["wer"] == expected.wer
        assert payload["substitutions"] == expected.substitutions
        assert payload["ref_count"] == expected.ref_count

    def test_unknown_uid_fails(self, pipeline, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text(json.dumps({"uid": "utt9999", "words": ["I"]}) + "\n", encoding="utf-8")
        code = main([
            "score", "--task", str(pipeline / "task"), "--results", str(bogus),
            "--out", str(tmp_path / "s.json"),
        ])
        assert code == 1
        assert "utt9999" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{"uid": "utt0000"}',
            '{"words": ["I"]}',
            "[1,2]",
            '{"uid": "utt0000", "words": ["I"]',
        ],
        ids=["missing-words", "missing-uid", "not-an-object", "bad-json"],
    )
    def test_malformed_results_line_names_file_and_line(self, pipeline, tmp_path, capsys, line):
        results = tmp_path / "bad.jsonl"
        good = json.dumps({"uid": "utt0000", "words": ["I"]})
        results.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        code = main([
            "score", "--task", str(pipeline / "task"), "--results", str(results),
            "--out", str(tmp_path / "s.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}:3: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.json").exists()


class TestTrainScorerCommand:
    def test_training_writes_checkpoint_and_trace(self, pipeline, tmp_path):
        ckpt = tmp_path / "model.npz"
        code = main([
            "train-scorer", "--task", str(pipeline / "task"),
            "--epochs", "3", "--lr", "0.01", "--seed", "1", "--out", str(ckpt),
        ])
        assert code == 0
        trace = (tmp_path / "model.npz.loss.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 4
        out = tmp_path / "scored.jsonl"
        code = main(decode_args(
            pipeline, out, "--scorer", str(ckpt),
            "--fusion", "nbest", "--lm-weight-nbest", "0.1",
        ))
        assert code == 0
        assert len(out.read_text().splitlines()) == 12

    @pytest.mark.parametrize("lr", ["nan", "inf", "-1"])
    def test_bad_learning_rate_is_runtime_failure(self, pipeline, tmp_path, capsys, lr):
        ckpt = tmp_path / "model.npz"
        code = main([
            "train-scorer", "--task", str(pipeline / "task"),
            "--epochs", "1", "--lr", lr, "--out", str(ckpt),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lr must be finite and non-negative")
        assert err.count("\n") == 1
        assert not ckpt.exists()


class TestSynthDeterminism:
    def test_same_seed_same_bytes(self, pipeline, tmp_path):
        for name in ("a", "b"):
            assert main([
                "synth", "--lexicon", str(pipeline / "lexicon.txt"),
                "--lm", str(pipeline / "lm.arpa"), "--count", "6", "--noise", "0.3",
                "--seed", "11", "--out", str(tmp_path / name),
            ]) == 0
        for fname in ("utterances.jsonl", "lexicon.txt", "lm.arpa", "meta.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_runtime_failure_from_empty_lm_vocab(self, pipeline, tmp_path, capsys):
        lonely = tmp_path / "lonely.txt"
        lonely.write_text("moon\tm u n\n", encoding="utf-8")
        code = main([
            "synth", "--lexicon", str(lonely), "--lm", str(pipeline / "lm.arpa"),
            "--count", "3", "--seed", "0", "--out", str(tmp_path / "t"),
        ])
        assert code == 1
        assert "vocabulary" in capsys.readouterr().err


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "fusedec" in capsys.readouterr().out
