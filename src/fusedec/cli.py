"""Command line front end.

One binary with subcommands covering the whole pipeline: compile a
pronunciation lexicon, train a language model, synthesize a task, train the
toy attention scorer, decode, sweep fusion weights, and score hypotheses.
Every run writes its primary output plus a manifest recording the command,
the flag values, sha256 digests of the inputs, the seed, and the toolkit
version: ``out/manifest.json`` when the output is a directory, else
``out.manifest.json`` beside it.  Reruns with the same flags produce
byte-identical primary outputs; manifests differ only in the duration field.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors, each
failure printed as one line; argparse's refusals are usage errors too.  A
negative value may follow its flag after a space (``--discount -1e-3``).
Configuration comes from flags alone, never from environment variables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__
from .decoder import (
    DecodeConfig,
    DecodeError,
    DecodeResources,
    FUSION_MODES,
    decode_batch,
)
from .fst import SymbolTable, write_fst_text
from .lexicon import EOW, EOW_MODES, LexiconError, compile_lexicon, parse_lexicon
from .ngram import SMOOTHINGS, NGramError, lm_to_fst, read_arpa, train_ngram, write_arpa
from .scorer import (
    OPTIMIZERS,
    ToyLasModel,
    load_checkpoint,
    save_checkpoint,
    train_model,
    write_loss_trace,
)
from .sweep import SWEEP_KINDS, SweepError, sweep_lmw, write_sweep_csv
from .synth import build_table_scorer, load_task, save_task, synth_corpus, task_alphabet
from .wer import corpus_wer


class UsageError(Exception):
    """A flag, value or flag combination the command refuses; maps to exit code 2."""


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """Refuses by raising :class:`UsageError` that names the (sub)command,
    and reads a dash followed by anything ``float()`` reads as a value: the
    private argparse pattern it replaces, pinned by a test, reads -1e-3 as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = argparse.Namespace(match=_reads_as_float)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _write_manifest(args: argparse.Namespace, inputs: Sequence[str], duration: float) -> None:
    """Write the run's manifest beside its output, or into it when that is a directory."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    digests: dict[str, str] = {}
    for entry in map(Path, inputs):
        if entry.is_dir():
            # skip the directory's own manifests: they hold durations
            files = sorted(p for p in entry.rglob("*") if p.is_file()
                           and p.name != "manifest.json" and not p.name.endswith(".manifest.json"))
        else:
            files = [entry]
        for f in files:
            digests[str(f)] = hashlib.sha256(f.read_bytes()).hexdigest()
    payload = {
        "command": args.command,
        "config": config,
        "duration_s": duration,
        "inputs": digests,
        "seed": config.get("seed"),
        "version": __version__,
    }
    out = Path(args.out)
    path = out / "manifest.json" if out.is_dir() else Path(f"{out}.manifest.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _lexicon(path: str, eow_mode: str | None = None, phoneset: SymbolTable | None = None):
    """The lexicon file at ``path``, compiled in ``eow_mode`` unless that
    is None; a malformed or empty file raises an error naming it."""
    try:
        lex = parse_lexicon(Path(path).read_text(encoding="utf-8"), phoneset)
        return lex if eow_mode is None else compile_lexicon(lex, eow_mode)
    except LexiconError as err:
        raise LexiconError(f"{path}: {err}") from None


def _cmd_compile_lexicon(args: argparse.Namespace) -> list[str]:
    phoneset = SymbolTable.read(args.phones) if args.phones else None
    if phoneset is not None and EOW not in phoneset:
        raise ValueError(f"{args.phones}: the phone table lacks {EOW}")
    fst = _lexicon(args.lexicon, args.eow_mode, phoneset)
    write_fst_text(fst, args.out)
    fst.isyms.write(f"{args.out}.isyms")
    fst.osyms.write(f"{args.out}.osyms")
    return [args.lexicon] + ([args.phones] if args.phones else [])


def _cmd_train_lm(args: argparse.Namespace) -> list[str]:
    sentences = [line.split() for line in Path(args.corpus).read_text(encoding="utf-8").splitlines() if line.strip()]
    lm = train_ngram(sentences, args.order, args.smoothing, args.discount)
    write_arpa(lm, args.out)
    return [args.corpus]


def _cmd_synth(args: argparse.Namespace) -> list[str]:
    lex = _lexicon(args.lexicon)
    lm = read_arpa(args.lm)
    task = synth_corpus(args.seed, lex, lm, args.count, args.noise)
    save_task(task, args.out)
    return [args.lexicon, args.lm]


def _cmd_train_scorer(args: argparse.Namespace) -> list[str]:
    task = load_task(args.task)
    if not task.utterances:
        raise ValueError(f"task {args.task} has no utterances to train on")
    _, utts = build_table_scorer(task)
    feat_dim = utts[0].features.shape[1]
    model = ToyLasModel.init(
        task_alphabet(task), feat_dim,
        enc_hidden=args.enc_hidden, dec_hidden=args.dec_hidden,
        att_dim=args.att_dim, embed_dim=args.embed_dim,
        n_heads=args.heads, n_enc_layers=args.layers, seed=args.seed,
    )
    trace = train_model(model, utts, args.epochs, args.lr, args.optimizer)
    save_checkpoint(model, args.out)
    write_loss_trace(f"{args.out}.loss.csv", trace)
    return [args.task]


def _decode_config(args: argparse.Namespace, **fields) -> DecodeConfig:
    """The decode flags every decoding command takes, plus ``fields``, as one
    config; an invalid combination is a usage error."""
    try:
        return DecodeConfig(
            beam_width=args.beam_width,
            max_steps=args.max_steps,
            coverage_threshold=args.coverage_threshold,
            eow_mode=args.eow_mode,
            nbest_size=args.nbest,
            **fields,
        )
    except DecodeError as err:
        raise UsageError(str(err)) from err


def _load_resources(args: argparse.Namespace) -> DecodeResources:
    lexicon_fst = _lexicon(args.lexicon, args.eow_mode)
    lm = read_arpa(args.lm)
    try:
        lm_fst = lm_to_fst(lm)
    except NGramError as err:
        raise NGramError(f"{args.lm}: {err}") from None
    return DecodeResources(lexicon_fst, lm_fst)


def _cmd_decode(args: argparse.Namespace) -> list[str]:
    config = _decode_config(
        args,
        fusion=args.fusion,
        lm_weight=args.lm_weight,
        lm_weight_nbest=args.lm_weight_nbest,
        coverage_weight=args.coverage_weight,
    )
    if args.fusion == "none":
        resources, resource_inputs = DecodeResources(), []
    elif args.lexicon and args.lm:
        resources, resource_inputs = _load_resources(args), [args.lexicon, args.lm]
    else:
        raise UsageError(f"fusion {args.fusion!r} requires --lexicon and --lm")
    task = load_task(args.task)
    model = load_checkpoint(args.scorer) if args.scorer else None
    table, utts = build_table_scorer(task)
    results = decode_batch(table if model is None else model, resources, utts, config)
    text = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in results)
    Path(args.out).write_text(text, encoding="utf-8")
    return [args.task, *resource_inputs] + ([args.scorer] if args.scorer else [])


def _sweep_grid(args: argparse.Namespace) -> list:
    try:
        values = [float(cell) for cell in args.grid.split(",") if cell.strip()]
    except ValueError as err:
        raise UsageError(f"bad --grid cell: {err}") from err
    if args.which == "split":
        if args.grid_sum is None:
            raise UsageError("--which split requires --grid-sum")
        return [(v, args.grid_sum - v) for v in values]
    if args.grid_sum is not None:
        raise UsageError("--grid-sum only applies to --which split")
    return values


def _cmd_sweep(args: argparse.Namespace) -> list[str]:
    grid = _sweep_grid(args)
    config = _decode_config(args)
    resources = _load_resources(args)
    task = load_task(args.task)
    if not task.utterances:
        raise ValueError(f"task {args.task} has no utterances to score")
    resources.graph_for(task_alphabet(task))  # a graph that does not fit would fail every point alike
    try:
        result = sweep_lmw(task, resources, config, grid, args.which)
    except (SweepError, DecodeError) as err:
        # sweep_lmw checks the grid and builds every point's config first
        raise UsageError(f"bad --grid: {err}") from err
    for k, point in enumerate(result.points):
        if point.error is not None:
            raise ValueError(f"sweep point {k} ({args.which} weight {grid[k]!r}) failed: {point.error}")
    write_sweep_csv(result, args.out)
    return [args.task, args.lexicon, args.lm]


def _cmd_score(args: argparse.Namespace) -> list[str]:
    task = load_task(args.task)
    refs = {utt.uid: utt.words for utt in task.utterances}
    pairs = {}
    for lineno, line in enumerate(Path(args.results).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        where = f"{args.results}:{lineno}"
        try:
            record = json.loads(line)
        except ValueError as err:
            raise ValueError(f"{where}: not a JSON line: {err}") from err
        fields = record if isinstance(record, dict) else {}
        uid, words = fields.get("uid"), fields.get("words")
        if not isinstance(uid, str) or not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise ValueError(f"{where}: expected an object with a string 'uid' and a list of string 'words'")
        if uid not in refs:
            raise ValueError(f"{where}: results mention {uid!r} which is not in the task")
        if uid in pairs:
            raise ValueError(f"{where}: results repeat {uid!r}")
        pairs[uid] = (refs[uid], words)
    if not pairs:
        raise ValueError(f"{args.results}: holds no decode results")
    breakdown = corpus_wer(list(pairs.values()))
    if breakdown.ref_count == 0 and breakdown.errors:
        raise ValueError(f"{args.task}: no reference words to rate {breakdown.errors} hypothesis words against")
    payload = {
        "deletions": breakdown.deletions,
        "insertions": breakdown.insertions,
        "substitutions": breakdown.substitutions,
        "ref_count": breakdown.ref_count,
        "utterances": len(pairs),
        "wer": breakdown.wer,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(
        f"wer {breakdown.wer:.6f} over {len(pairs)} utterances "
        f"(del {breakdown.deletions} ins {breakdown.insertions} "
        f"sub {breakdown.substitutions} / {breakdown.ref_count} ref words)"
    )
    return [args.task, args.results]


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam-width", type=int, default=8, help="live hypotheses kept per step")
    p.add_argument("--nbest", type=int, default=8, help="ranked hypotheses reported per utterance")
    p.add_argument("--max-steps", type=int, default=64, help="token-length cap per utterance")
    p.add_argument("--eow-mode", choices=EOW_MODES, default="required",
                   help="whether word boundaries must be emitted")
    p.add_argument("--coverage-threshold", type=float, default=0.5,
                   help="attention mass for a frame to count as covered")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fusedec",
        description="Lexicon-constrained beam search with n-gram fusion for toy attention scorers.",
    )
    parser.add_argument("--version", action="version", version=f"fusedec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("compile-lexicon", help="build the pronunciation transducer")
    p.add_argument("--lexicon", required=True, help="word<TAB>phones file")
    p.add_argument("--phones", help="optional phone symbol table; derived from the lexicon when absent")
    p.add_argument("--eow-mode", choices=EOW_MODES, default="required",
                   help="whether word boundaries must be emitted")
    p.add_argument("--out", required=True, help="output FST path (text format; .isyms/.osyms written beside)")
    p.set_defaults(func=_cmd_compile_lexicon)

    p = sub.add_parser("train-lm", help="estimate a backoff n-gram model")
    p.add_argument("--corpus", required=True, help="text file, one sentence per line")
    p.add_argument("--order", type=int, default=2, help="model order, 1 to 4")
    p.add_argument("--smoothing", choices=SMOOTHINGS, default="absdisc")
    p.add_argument("--discount", type=float, default=0.4, help="absolute discount amount")
    p.add_argument("--out", required=True, help="output ARPA path")
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("synth", help="sample a synthetic decoding task")
    p.add_argument("--lexicon", required=True, help="word<TAB>phones file")
    p.add_argument("--lm", required=True, help="ARPA model to sample sentences from")
    p.add_argument("--count", type=int, required=True, help="number of utterances")
    p.add_argument("--noise", type=float, default=0.0, help="phone confusion and feature noise rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output task directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-scorer", help="fit the toy attention scorer on a task")
    p.add_argument("--task", required=True, help="task directory from synth")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="adam")
    p.add_argument("--enc-hidden", type=int, default=16)
    p.add_argument("--dec-hidden", type=int, default=16)
    p.add_argument("--att-dim", type=int, default=8)
    p.add_argument("--embed-dim", type=int, default=8)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output checkpoint path (.loss.csv written beside)")
    p.set_defaults(func=_cmd_train_scorer)

    p = sub.add_parser("decode", help="decode a task and write ranked hypotheses")
    p.add_argument("--task", required=True, help="task directory from synth")
    p.add_argument("--scorer", help="checkpoint from train-scorer; defaults to the task's emission table")
    p.add_argument("--fusion", choices=FUSION_MODES, default="none")
    p.add_argument("--lexicon", help="word<TAB>phones file; required for fused modes")
    p.add_argument("--lm", help="ARPA model; required for fused modes")
    p.add_argument("--lm-weight", type=float, default=0.0, help="in-search language model weight")
    p.add_argument("--lm-weight-nbest", type=float, default=None, help="rescoring language model weight")
    p.add_argument("--coverage-weight", type=float, default=0.0)
    _add_decode_flags(p)
    p.add_argument("--out", required=True, help="output JSONL path, one result per utterance")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("sweep", help="decode a task across a weight grid and write the WER curve")
    p.add_argument("--task", required=True, help="task directory from synth")
    p.add_argument("--lexicon", required=True, help="word<TAB>phones file")
    p.add_argument("--lm", required=True, help="ARPA model")
    p.add_argument("--which", choices=SWEEP_KINDS, required=True,
                   help="where the swept weight applies")
    p.add_argument("--grid", required=True, help="comma-separated weights, e.g. 0,0.02,0.04")
    p.add_argument("--grid-sum", type=float, default=None,
                   help="constant lambda_beam + lambda_nbest for --which split")
    _add_decode_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("score", help="score decode output against a task's references")
    p.add_argument("--task", required=True, help="task directory holding the references")
    p.add_argument("--results", required=True, help="JSONL from decode")
    p.add_argument("--out", required=True, help="output JSON path with the error breakdown")
    p.set_defaults(func=_cmd_score)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        start = time.monotonic()
        inputs = args.func(args)
        _write_manifest(args, inputs, time.monotonic() - start)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
