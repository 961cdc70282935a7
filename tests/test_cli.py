"""End-to-end checks of the command line front end.

A module-scoped pipeline fixture runs compile-lexicon, train-lm, and synth
once on the two-way homophone fixture; the tests then exercise decode,
sweep, score, and train-scorer on top of it, plus the exit-code contract
and byte-level reproducibility of reruns.
"""

import argparse
import json
import math
import shutil

import pytest

from fusedec import cli as cli_mod
from fusedec import sweep as sweep_mod
from fusedec.cli import main
from fusedec.fst import SymbolTable, read_fst_text
from fusedec.ngram import read_arpa, score_sequence
from fusedec.scorer import ToyLasModel, save_checkpoint
from fusedec.synth import build_table_scorer, load_task, task_alphabet
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

    def test_rerun_after_a_fresh_synth_differs_only_in_timing(self, pipeline, tmp_path):
        # each synth writes its task's manifest.json with a new duration; the
        # decode manifest must not digest it
        task, out = tmp_path / "task", tmp_path / "results.jsonl"
        args = decode_args(pipeline, out, "--fusion", "nbest", "--lm-weight-nbest", "0.1")
        args[args.index("--task") + 1] = str(task)
        manifests = []
        for _ in range(2):
            assert main([
                "synth", "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
                "--count", "4", "--seed", "3", "--out", str(task),
            ]) == 0
            assert main(args) == 0
            manifest = json.loads((tmp_path / "results.jsonl.manifest.json").read_text())
            manifest.pop("duration_s")
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        assert f"{task}/utterances.jsonl" in manifests[0]["inputs"]

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

    @pytest.mark.parametrize("weights", [
        ("--fusion", "beam", "--lm-weight", "1e308"),
        ("--fusion", "both", "--lm-weight", "1e308", "--lm-weight-nbest", "1e308", "--coverage-weight", "1e308"),
    ])
    def test_weights_that_overflow_fail_with_one_line_and_no_results(self, pipeline, tmp_path, capsys, weights):
        out = tmp_path / "x.jsonl"
        code = main(decode_args(pipeline, out, *weights))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: the weights overflow") and err.count("\n") == 1
        assert "1e+308" in err
        assert not out.exists()

    def test_missing_required_flag_exits_two(self, pipeline, capsys):
        assert main(["decode", "--task", str(pipeline / "task")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: fusedec decode: ") and err.count("\n") == 1


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

    def test_malformed_grid_is_usage_error(self, pipeline, tmp_path, capsys, monkeypatch):
        # every one fails before the first decode, as decode does for the same weight
        decoded = []
        monkeypatch.setattr(sweep_mod, "decode_batch", lambda *args: decoded.append(args))
        for which, grid in [
            ("nbest", ["--grid", "0,oops"]),
            ("beam", ["--grid", ","]),
            ("beam", ["--grid", "0,0.1,-1"]),
            ("nbest", ["--grid", "0,nan"]),
            ("split", ["--grid", "0,0.1,0.3", "--grid-sum", "0.2"]),
        ]:
            code = main([
                "sweep", "--task", str(pipeline / "task"),
                "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
                "--which", which, *grid, "--out", str(tmp_path / "x.csv"),
            ])
            err = capsys.readouterr().err
            assert code == 2, grid
            assert err.startswith("usage error: ") and "--grid" in err and err.count("\n") == 1
            assert decoded == [] and not (tmp_path / "x.csv").exists()

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


    @pytest.mark.parametrize("broken", ["lexicon", "task"])
    def test_a_sweep_no_point_can_score_fails_before_decoding(self, pipeline, tmp_path, capsys, monkeypatch, broken):
        # a lexicon with a phone the task's scorer cannot emit, or a task
        # with no utterances, would fail every point alike
        decoded = []
        real = sweep_mod.decode_batch
        monkeypatch.setattr(sweep_mod, "decode_batch", lambda *args: decoded.append(args) or real(*args))
        task, lexicon = pipeline / "task", pipeline / "lexicon.txt"
        if broken == "lexicon":
            lexicon = tmp_path / "lexicon.txt"
            lexicon.write_text("am\tae n\n", encoding="utf-8")
        else:
            task = tmp_path / "empty"
            assert main([
                "synth", "--lexicon", str(lexicon), "--lm", str(pipeline / "lm.arpa"),
                "--count", "0", "--out", str(task),
            ]) == 0
        code = main([
            "sweep", "--task", str(task), "--lexicon", str(lexicon), "--lm", str(pipeline / "lm.arpa"),
            "--which", "beam", "--grid", "0,0.1", "--out", str(tmp_path / "x.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "--grid" not in err
        assert decoded == [] and not (tmp_path / "x.csv").exists()

    def test_a_failed_point_fails_the_sweep_and_is_named(self, pipeline, tmp_path, capsys, monkeypatch):
        real = sweep_mod.decode_batch

        def flaky(scorer, resources, utts, cfg):
            if cfg.lm_weight == 0.1:
                raise ValueError("synthetic failure")
            return real(scorer, resources, utts, cfg)

        monkeypatch.setattr(sweep_mod, "decode_batch", flaky)
        code = main([
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "beam", "--grid", "0,0.1,0.2", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: sweep point 1 (beam weight 0.1) failed: synthetic failure\n"
        assert not (tmp_path / "x.csv").exists()

    def test_a_point_whose_weight_overflows_fails_the_sweep(self, pipeline, tmp_path, capsys):
        code = main([
            "sweep", "--task", str(pipeline / "task"),
            "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--which", "beam", "--grid", "1e308,1e308", "--out", str(tmp_path / "x.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: sweep point 0 (beam weight 1e+308) failed: the weights overflow")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


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

    def test_references_without_words_score_only_empty_hypotheses(self, pipeline, tmp_path, capsys):
        # words against no reference words have an infinite rate, which
        # JSON cannot hold; no words against none score 0
        task = tmp_path / "task"
        shutil.copytree(pipeline / "task", task)
        utts = task / "utterances.jsonl"
        records = [json.loads(line) for line in utts.read_text().splitlines()]
        utts.write_text("".join(json.dumps({**r, "words": []}) + "\n" for r in records), encoding="utf-8")
        results, out = tmp_path / "results.jsonl", tmp_path / "s.json"
        assert main(decode_args(pipeline, results, "--fusion", "nbest", "--lm-weight-nbest", "0.1")) == 0
        capsys.readouterr()
        code = main(["score", "--task", str(task), "--results", str(results), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {task}: ") and err.count("\n") == 1
        assert not out.exists()
        results.write_text("".join(json.dumps({"uid": r["uid"], "words": []}) + "\n" for r in records))
        assert main(["score", "--task", str(task), "--results", str(results), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["wer"] == 0.0

    def test_results_without_records_are_refused(self, pipeline, tmp_path, capsys):
        task, results, out = tmp_path / "empty", tmp_path / "results.jsonl", tmp_path / "s.json"
        assert main([
            "synth", "--lexicon", str(pipeline / "lexicon.txt"), "--lm", str(pipeline / "lm.arpa"),
            "--count", "0", "--out", str(task),
        ]) == 0
        assert main([
            "decode", "--task", str(task), "--lexicon", str(pipeline / "lexicon.txt"),
            "--lm", str(pipeline / "lm.arpa"), "--out", str(results),
        ]) == 0
        assert results.read_text() == ""
        capsys.readouterr()
        code = main(["score", "--task", str(task), "--results", str(results), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {results}: holds no decode results\n"
        assert not out.exists()

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
            '{"uid": "utt0000", "words": ["eye"]}',
        ],
        ids=["missing-words", "missing-uid", "not-an-object", "bad-json", "repeated-uid"],
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

    @pytest.mark.parametrize("message", ["Unable to allocate 2.4 GiB for an array", ""])
    def test_running_out_of_memory_is_one_line(self, pipeline, tmp_path, capsys, monkeypatch, message):
        # a real model that large would take gigabytes before failing
        def init(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli_mod.ToyLasModel, "init", init)
        ckpt = tmp_path / "model.npz"
        code = main(["train-scorer", "--task", str(pipeline / "task"), "--epochs", "1", "--out", str(ckpt)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
        assert not ckpt.exists()


def _edited_checkpoint(task, ckpt, edit=None):
    """A checkpoint for ``task`` at the default sizes, its JSON document
    passed through ``edit`` when one is given."""
    loaded = load_task(task)
    _, utts = build_table_scorer(loaded)
    save_checkpoint(ToyLasModel.init(task_alphabet(loaded), utts[0].features.shape[1]), ckpt)
    if edit is not None:
        doc = json.loads(ckpt.read_text(encoding="utf-8"))
        edit(doc)
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
    return ckpt


def _truncated_checkpoint(task, ckpt):
    _edited_checkpoint(task, ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    return ckpt


def _checkpoint_without_arrays(task, ckpt):
    return _edited_checkpoint(task, ckpt, lambda doc: doc.pop("params"))


def _checkpoint_with_one_head_too_many(task, ckpt):
    # att_v has a row per head, so its heads no longer fit att_Wq's columns
    return _edited_checkpoint(task, ckpt, lambda doc: doc["params"]["att_v"].append([0.0] * 8))


def _checkpoint_with_half_a_second_layer(task, ckpt):
    return _edited_checkpoint(task, ckpt, lambda doc: doc["params"].update(enc1_Wz=[[0.0] * 16] * 16))


def _checkpoint_with_a_ragged_array(task, ckpt):
    return _edited_checkpoint(task, ckpt, lambda doc: doc["params"]["out_W"][3].pop())


def _checkpoint_with_a_repeated_key(task, ckpt):
    _edited_checkpoint(task, ckpt)
    text = ckpt.read_text(encoding="utf-8")
    ckpt.write_text(text.replace('"params": {', '"params": {"out_b": [], ', 1), encoding="utf-8")
    return ckpt


def _version_2_checkpoint(task, ckpt):
    """What the binary format of version 2 wrote: a magic, the version, a
    JSON header's length, the header, then every array as float64."""
    loaded = load_task(task)
    _, utts = build_table_scorer(loaded)
    model = ToyLasModel.init(task_alphabet(loaded), utts[0].features.shape[1])
    sizes = ("feat_dim", "enc_hidden", "dec_hidden", "att_dim", "embed_dim", "n_heads", "n_enc_layers")
    names = sorted(model.params)
    header = json.dumps({
        **{size: getattr(model, size) for size in sizes},
        "alphabet": list(model.alphabet),
        "arrays": [{"name": k, "shape": list(model.params[k].shape)} for k in names],
    }, sort_keys=True).encode()
    blob = b"FDSC" + (2).to_bytes(4, "little") + len(header).to_bytes(4, "little") + header
    ckpt.write_bytes(blob + b"".join(model.params[k].astype("<f8").tobytes() for k in names))
    return ckpt


def _phone_table_with_a_repeated_symbol(task, ckpt):
    path = task / "phones.syms"
    lines = path.read_text(encoding="utf-8").splitlines()
    symbol = lines[1].split("\t")[0]
    lines.append(f"{symbol}\t{len(lines)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{path}: line {len(lines)}"


def _utterance_without_words(task, ckpt):
    path = task / "utterances.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = '{"uid": "x"}\n'
    path.write_text("".join(lines), encoding="utf-8")
    return f"{path}:2"


def _utterance_with_a_repeated_uid(task, ckpt):
    path = task / "utterances.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    record["uid"] = json.loads(lines[0])["uid"]
    lines[2] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return f"{path}:3"


def _utterance_with_string_words(task, ckpt):
    path = task / "utterances.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[0])
    record["words"] = " ".join(record["words"])
    lines[0] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return f"{path}:1"


def _utterance_with_null_features(task, ckpt):
    path = task / "utterances.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    record["features"] = None
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return f"{path}:2"


def _utterance_with_nan_features(task, ckpt):
    _edited_checkpoint(task, ckpt)
    path = task / "utterances.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    record["features"][0][0] = math.nan
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return f"{path}:2"


def _checkpoint_with_a_nan_parameter(task, ckpt):
    # save_checkpoint refuses a NaN, so the document is edited by hand
    loaded = load_task(task)
    _, utts = build_table_scorer(loaded)
    save_checkpoint(ToyLasModel.init(task_alphabet(loaded), utts[0].features.shape[1]), ckpt)
    doc = json.loads(ckpt.read_text(encoding="utf-8"))
    doc["params"]["out_b"][0] = math.nan
    ckpt.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    assert "NaN" in ckpt.read_text(encoding="utf-8")
    return ckpt


def _empty_meta(task, ckpt):
    (task / "meta.json").write_text("{}\n", encoding="utf-8")
    return task / "meta.json"


def _lexicon_line_without_tab(task, ckpt):
    (task / "lexicon.txt").write_text("I ay\n", encoding="utf-8")
    return task / "lexicon.txt"


def _lexicon_with_epsilon(task, ckpt):
    (task / "lexicon.txt").write_text("I\t<eps> ay\n<eps>\tae\n", encoding="utf-8")
    return task / "lexicon.txt"


def _lm_with_an_epsilon_unigram(task, ckpt):
    path = task / "lm.arpa"
    lines = path.read_text(encoding="utf-8").splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("ngram 1="))
    lines[n] = f"ngram 1={int(lines[n].split('=')[1]) + 1}"
    first = lines.index("\\1-grams:") + 1
    lines.insert(first, "-0.5\t<eps>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{path}: line {first + 1}"


def _lm_with_a_repeated_unigram(task, ckpt):
    path = task / "lm.arpa"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = lines.index("\\1-grams:") + 1
    lines.insert(first + 1, lines[first])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{path}: line {first + 2}"


class TestMalformedInputFiles:
    """A malformed task or checkpoint file ends in one error line that names
    it (and the line, for utterances), with exit code 1."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _truncated_checkpoint,
            _checkpoint_without_arrays,
            _checkpoint_with_one_head_too_many,
            _checkpoint_with_half_a_second_layer,
            _checkpoint_with_a_ragged_array,
            _checkpoint_with_a_repeated_key,
            _version_2_checkpoint,
            _utterance_without_words,
            _utterance_with_a_repeated_uid,
            _utterance_with_string_words,
            _utterance_with_null_features,
            _utterance_with_nan_features,
            _checkpoint_with_a_nan_parameter,
            _empty_meta,
            _lexicon_line_without_tab,
            _lexicon_with_epsilon,
            _lm_with_an_epsilon_unigram,
            _lm_with_a_repeated_unigram,
            _phone_table_with_a_repeated_symbol,
        ],
        ids=lambda f: f.__name__.strip("_").replace("_", "-"),
    )
    def test_decode_names_the_file(self, pipeline, tmp_path, capsys, corrupt):
        task, ckpt = tmp_path / "task", tmp_path / "model.ckpt"
        shutil.copytree(pipeline / "task", task)
        where = corrupt(task, ckpt)
        out = tmp_path / "out.jsonl"
        args = decode_args(pipeline, out, "--fusion", "nbest", "--lm-weight-nbest", "0.1")
        args[args.index("--task") + 1] = str(task)
        if ckpt.exists():
            args += ["--scorer", str(ckpt)]
        code = main(args)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "compile-lexicon"])
    @pytest.mark.parametrize(
        "text", ["I ay\n", "# no entries\n", "I\tay\nam\tae <eow>\n"], ids=["line-without-tab", "empty", "eow-phoneme"]
    )
    def test_lexicon_flag_names_the_file(self, pipeline, tmp_path, capsys, command, text):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        if command == "decode":
            args = decode_args(pipeline, out, "--fusion", "beam", "--lm-weight", "0.1")
            args[args.index("--lexicon") + 1] = str(lexicon)
        else:
            args = ["compile-lexicon", "--lexicon", str(lexicon), "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lexicon}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_phone_table_without_eow_names_the_phone_file(self, pipeline, tmp_path, capsys):
        phones = tmp_path / "phones.syms"
        phones.write_text("<eps>\t0\nay\t1\nae\t2\nm\t3\n", encoding="utf-8")
        out = tmp_path / "l.fst"
        args = ["compile-lexicon", "--lexicon", str(pipeline / "lexicon.txt"), "--phones", str(phones)]
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {phones}: the phone table lacks <eow>\n"
        assert not out.exists()

    def test_decode_refuses_a_backoff_above_one(self, pipeline, tmp_path, capsys):
        # a task may carry such an LM (synth only samples from it), but no
        # fusion graph can charge a backoff weight above 1
        lm = tmp_path / "lm.arpa"
        lines = (pipeline / "lm.arpa").read_text(encoding="utf-8").splitlines()
        n = next(i for i, line in enumerate(lines) if line.split("\t")[1:2] == ["<s>"])
        lines[n] = "\t".join([*lines[n].split("\t")[:2], "0.3"])
        lm.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        args = decode_args(pipeline, out, "--fusion", "beam", "--lm-weight", "0.1")
        args[args.index("--lm") + 1] = str(lm)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lm}: context '<s>' has log10 backoff 0.3")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


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


def test_help_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["decode", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fusedec decode")


# per command: flags that satisfy its required ones, a flag with choices, an int flag
PARSER_FLAGS = {
    "compile-lexicon": (["--lexicon", "l", "--out", "o"], "--eow-mode", None),
    "train-lm": (["--corpus", "c", "--out", "o"], "--smoothing", "--order"),
    "synth": (["--lexicon", "l", "--lm", "m", "--count", "1", "--out", "o"], None, "--count"),
    "train-scorer": (["--task", "t", "--out", "o"], "--optimizer", "--epochs"),
    "decode": (["--task", "t", "--out", "o"], "--fusion", "--beam-width"),
    "sweep": (["--task", "t", "--lexicon", "l", "--lm", "m", "--which", "beam", "--grid", "0", "--out", "o"],
              "--which", "--nbest"),
    "score": (["--task", "t", "--results", "r", "--out", "o"], None, None),
}
REFUSALS = [
    pytest.param(command, argv, id=f"{command}-{kind}")
    for command, (required, choice, integer) in PARSER_FLAGS.items()
    for kind, argv in [
        ("missing", [command, *required[2:]]),
        ("unknown", [command, *required, "--no-such-flag"]),
        ("choice", [command, *required, choice, "no-such-choice"] if choice else None),
        ("int", [command, *required, integer, "1.5x"] if integer else None),
    ]
    if argv is not None
]


@pytest.mark.parametrize("command, argv", REFUSALS)
def test_every_argparse_refusal_is_one_usage_line(command, argv, capsys):
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"usage error: fusedec {command}: ") and printed.err.count("\n") == 1


@pytest.mark.parametrize("argv", [[], ["no-such-command"], ["--no-such-flag", "score", *PARSER_FLAGS["score"][0]]])
def test_a_refusal_before_the_command_names_the_program(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: fusedec: ") and err.count("\n") == 1


def test_argparse_still_has_the_negative_number_hook():
    # the parser replaces this private attribute so that -1e-3 is a value; an
    # argparse that renamed it would silently read such values as flags again
    assert "_negative_number_matcher" in vars(argparse.ArgumentParser())


@pytest.mark.parametrize("value", ["-1e-3", "-1E308", "-.5", "-inf", "-NaN"])
def test_a_negative_value_may_follow_its_flag_after_a_space(pipeline, tmp_path, value, capsys):
    def run(*spelling):
        argv = ["train-lm", "--corpus", str(pipeline / "corpus.txt"), *spelling, "--out", str(tmp_path / "lm")]
        return main(argv), capsys.readouterr().err

    spaced = run("--discount", value)
    assert spaced == run(f"--discount={value}")
    assert spaced[0] == 1 and spaced[1].startswith("error: discount must be in (0, 1), got ")


def test_a_negative_exponent_weight_reaches_the_config_refusal(pipeline, tmp_path, capsys):
    assert main(decode_args(pipeline, tmp_path / "r.jsonl", "--fusion", "beam", "--lm-weight", "-1e308")) == 2
    assert capsys.readouterr().err == "usage error: weights must be non-negative\n"
