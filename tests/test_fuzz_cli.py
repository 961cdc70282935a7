"""Bad input never ends in a traceback: a mutation fuzzer over the CLI.

The quickstart's files are built once through ``cli.main``: a lexicon (the
homophone fixture plus one word), a corpus, the ARPA model trained on it, a
synthesized task, a fused decode's ``results.jsonl`` and a two-head
checkpoint.  Each example mutates one file and runs every command that
reads it, in-process.  Text is mutated by deleting, duplicating, swapping
or truncating lines, or by putting a token such as ``nan``, ``1e400`` or
``<eow>`` in place of a field; JSON by replacing a leaf with a value of the
wrong type or deleting it.  Every run must return 0, 1 or 2 without an
exception, and a failing run must print exactly one line.

A second case sets each float flag of the quickstart's commands to each of
a few extreme values, such as ``1e308``, ``-1e308`` and ``nan``, once as
``flag=value`` and once as ``flag value``.  The same property holds, both
spellings must end alike and print the same, and every JSON or JSONL file a
run writes must hold no ``NaN`` or ``Infinity``, which are not JSON.  Integer
size, count and epoch flags are never set this way: an extreme size makes
the program allocate gigabytes before it fails.

The mutation budget is fixed and derandomized, so tier-1 runs the same
examples each time.  ``tests/fuzz_cli_deep.py`` runs the mutation property
for longer, with fresh randomness.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusedec.cli import main

LEXICON = "I\tay\neye\tay\nam\tae m\nan\tae n\n"
CORPUS = "I am\nI am\nI am\neye\nan eye\n"
TOKENS = ["nan", "inf", "-inf", "1e400", "-1", "0", "<eow>", "<eos>", "<sos>", "<eps>", "", "x y", "\t", "null", "{}"]
WRONG_TYPES = [None, "x", "", -1, 0, 2**70, 1e400, math.nan, True, [], [[]], {}]
TASK_FILES = ("lexicon.txt", "phones.syms", "lm.arpa", "utterances.jsonl", "meta.json")
FLOAT_VALUES = ["1e308", "-1e308", "5e-324", "-0.0", "nan", "inf", "1e400"]
# (command, flag) pairs; "--grid" sets the grid's last cell
FLOAT_FLAGS = [
    ("decode", "--lm-weight"), ("decode", "--lm-weight-nbest"), ("decode", "--coverage-weight"),
    ("decode", "--coverage-threshold"), ("sweep", "--grid"), ("split", "--grid-sum"),
    ("synth", "--noise"), ("train-lm", "--discount"), ("train-scorer", "--lr"),
]


def build_quickstart(root: Path) -> tuple[dict[str, list[list[str]]], dict[str, list[str]]]:
    """Write the quickstart's files under ``root`` and return, for each
    file a mutation may target, the argument lists of the commands that
    read it, and the argument lists :data:`FLOAT_FLAGS` names, each
    writing under ``root / "flags"``."""
    (root / "lexicon.txt").write_text(LEXICON, encoding="utf-8")
    (root / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    out = root / "out"
    out.mkdir()

    def p(name: str) -> str:
        return str(root / name)

    compile_lexicon = ["compile-lexicon", "--lexicon", p("lexicon.txt"), "--out", str(out / "l.fst")]
    train_lm = ["train-lm", "--corpus", p("corpus.txt"), "--out", p("lm.arpa")]
    synth = ["synth", "--lexicon", p("lexicon.txt"), "--lm", p("lm.arpa"), "--count", "3",
             "--noise", "0.1", "--seed", "1", "--out", p("task")]
    fused = ["--fusion", "beam", "--lm-weight", "0.5", "--lexicon", p("lexicon.txt"), "--lm", p("lm.arpa"),
             "--max-steps", "8", "--beam-width", "4"]
    decode = ["decode", "--task", p("task"), *fused, "--out", p("results.jsonl")]
    train_scorer = ["train-scorer", "--task", p("task"), "--epochs", "2", "--heads", "2", "--enc-hidden", "3",
                    "--dec-hidden", "3", "--att-dim", "2", "--embed-dim", "2", "--out", p("s.ckpt")]
    for argv in (train_lm, synth, decode, train_scorer):
        assert main(argv) == 0
    # from here on every command writes under out/, never over an input
    decode = [*decode[:-1], str(out / "results.jsonl")]
    synth = [*synth[:-1], str(out / "task")]
    train_scorer = [*train_scorer[:-1], str(out / "s.ckpt")]
    with_scorer = [*decode[:-1], str(out / "scored.jsonl"), "--scorer", p("s.ckpt")]
    sweep = ["sweep", "--task", p("task"), "--lexicon", p("lexicon.txt"), "--lm", p("lm.arpa"), "--which", "beam",
             "--grid", "0,0.5", "--max-steps", "8", "--beam-width", "4", "--out", str(out / "sweep.csv")]
    score = ["score", "--task", p("task"), "--results", p("results.jsonl"), "--out", str(out / "wer.json")]
    task_readers = [decode, with_scorer, sweep, score, train_scorer]
    readers = {
        "lexicon.txt": [compile_lexicon, synth, decode, sweep],
        "corpus.txt": [train_lm],
        "lm.arpa": [synth, decode, sweep],
        "results.jsonl": [score],
        "s.ckpt": [with_scorer],
    }
    readers.update({f"task/{name}": task_readers for name in TASK_FILES})
    flags = root / "flags"
    both = ["--fusion", "both", "--lm-weight", "0.5", "--lm-weight-nbest", "0.5", "--coverage-weight", "0.1"]
    commands = {
        "decode": [*decode[:3], *both, *fused[4:], "--out", str(flags / "results.jsonl")],
        "sweep": [*sweep[:-1], str(flags / "sweep.csv")],
        "split": [*sweep[:8], "split", "--grid", "0,0.5", "--grid-sum", "0.5", *sweep[11:-1],
                  str(flags / "split.csv")],
        "synth": [*synth[:-1], str(flags / "task")],
        "train-lm": [*train_lm[:-1], str(flags / "lm.arpa")],
        "train-scorer": [*train_scorer[:-1], str(flags / "s.ckpt")],
    }
    return readers, commands


def _leaves(value, path=()):
    """The paths of every leaf of a JSON value, and of every empty container."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    found = [path]
    for key, child in children:
        found += _leaves(child, (*path, key))
    return found


@st.composite
def mutated_text(draw, text: str, is_json: bool) -> str:
    """One mutation of a file's text; see the module docstring."""
    lines = text.splitlines()
    if is_json and lines and draw(st.booleans()):
        row = draw(st.integers(0, len(lines) - 1))
        doc = json.loads(lines[row])
        path = draw(st.sampled_from(_leaves(doc)[1:] or [()]))
        if not path:
            doc = draw(st.sampled_from(WRONG_TYPES))
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                parent[path[-1]] = draw(st.sampled_from(WRONG_TYPES))
            else:
                del parent[path[-1]]
        lines[row] = json.dumps(doc)
        return "\n".join(lines) + "\n"
    op = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate", "token"] if lines else ["token"]))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if not lines:
        return draw(st.sampled_from(TOKENS)) + "\n"
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(j, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split("\t") if "\t" in lines[i] else lines[i].split(" ")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
        lines[i] = ("\t" if "\t" in lines[i] else " ").join(fields)
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit status and everything printed, for one in-process run.  Every
    warning is printed, one line each, however often it was seen before."""
    printed = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            status = main(argv)
    return status, "".join(f"{w.category.__name__}: {w.message}\n" for w in caught) + printed.getvalue()


def check_mutation(root: Path, readers: dict, target: str, text: str) -> None:
    """Write ``text`` over ``target`` and run every command that reads it;
    the file is put back afterwards."""
    path = root / target
    original = path.read_bytes()
    try:
        path.write_text(text, encoding="utf-8")
        for argv in readers[target]:
            status, printed = run_cli(argv)
            assert status in (0, 1, 2), (argv[0], status)
            if status:
                assert printed.count("\n") == 1 and printed.endswith("\n"), (argv[0], printed)
    finally:
        path.write_bytes(original)


def mutations(root: Path, readers: dict):
    """A strategy of ``(target, mutated text)`` over the quickstart at ``root``."""
    originals = {target: (root / target).read_text(encoding="utf-8") for target in readers}

    @st.composite
    def draw_one(draw):
        target = draw(st.sampled_from(sorted(readers)))
        is_json = target.endswith((".json", ".jsonl", ".ckpt"))
        return target, draw(mutated_text(originals[target], is_json))

    return draw_one()


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def check_float_flag(root: Path, commands: dict, command: str, flag: str, value: str) -> None:
    """Run ``command`` with ``flag`` set to ``value``, or with the grid's
    last cell set to it, in an empty output directory, and check every JSON
    or JSONL file the run wrote.  The value is given both as ``flag=value``
    and as ``flag value``, which must end alike and print the same, also
    for a value such as ``-1e308`` that starts with a dash."""
    argv = list(commands[command])
    if flag in argv:
        k = argv.index(flag)
        if flag == "--grid":
            value = argv[k + 1].rsplit(",", 1)[0] + "," + value
        del argv[k : k + 2]
    joined = _run_in_empty_flags(root, [*argv, f"{flag}={value}"])
    assert _run_in_empty_flags(root, [*argv, flag, value]) == joined, (argv, flag, value)


def _run_in_empty_flags(root: Path, argv: list[str]) -> tuple[int, str]:
    """Exit status and everything printed, for one run writing into an
    emptied ``root / "flags"``, after checking the run's JSON and JSONL."""
    flags = root / "flags"
    shutil.rmtree(flags, ignore_errors=True)
    flags.mkdir()
    status, printed = run_cli(argv)
    assert status in (0, 1, 2), (argv, status)
    if status:
        assert printed.count("\n") == 1 and printed.endswith("\n"), (argv, printed)
    for path in sorted(flags.rglob("*")):
        if path.suffix in (".json", ".jsonl", ".ckpt"):
            text = path.read_text(encoding="utf-8")
            for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_constant=_refuse_constant)
    return status, printed


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return (root, *build_quickstart(root))


def test_mutated_inputs_exit_cleanly(quickstart):
    root, readers, _ = quickstart

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=mutations(root, readers))
    def property_(mutation):
        check_mutation(root, readers, *mutation)

    property_()


@pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
def test_extreme_float_flags_exit_cleanly_and_write_only_json(quickstart, command, flag):
    root, _, commands = quickstart
    for value in FLOAT_VALUES:
        check_float_flag(root, commands, command, flag, value)
