"""Golden decode outputs of the benchmark's three workloads and of the CLI.

    PYTHONPATH=src python3 tests/golden/regenerate.py [--seed 1] [--check]
    PYTHONPATH=src python3 tests/golden/regenerate.py --cli [--check]

Builds one round of each workload in ``bench/workloads.py`` at ``--seed``
and writes what it decoded to ``tests/golden/seed<N>.json``; ``--check``
compares against that file instead and prints each difference.  With
``--cli`` it runs the README quickstart (plus an ``nbest`` sweep and a
two-head ``train-scorer`` whose checkpoint then decodes the task) in a
temporary directory and writes or checks ``tests/golden/cli.json``.
``tests/test_golden.py`` pins seed 1 and the CLI.

- ``noisy_sweep`` and ``trigram_lexicon`` (its order-3 probe included) are
  stored as one SHA-256 per config or sweep point, over the sorted-key JSON
  of that point's ``to_dict()`` records in decode order, so a failure names
  the point that moved.
- ``las_decode`` is stored whole: its words must match exactly and its
  floats within 1e-9 relative, since the model's costs may move in their
  last bits while no decoded word may change.
- The CLI's byte-identical outputs are stored as one SHA-256 per file, and
  its manifests whole but for ``duration_s``.  What the attention model
  writes (its loss trace and the ``--scorer`` decode) is stored whole and
  compared as ``las_decode`` is.  The checkpoint's bytes are not pinned, so
  the decode's manifest is stored without the checkpoint's digest.

Regenerating is a change to a check: say which records moved and why.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent.parent / "bench"
WORKLOADS = ("noisy_sweep", "trigram_lexicon", "las_decode")
REL_TOL = 1e-9
CLI_PATH = HERE / "cli.json"

# Run in order from one empty directory, every path relative to it, so the
# manifests record the same input names wherever the directory is.
CLI_STEPS = (
    ("compile-lexicon", "--lexicon", "lexicon.txt", "--out", "l.fst"),
    ("train-lm", "--corpus", "corpus.txt", "--order", "2", "--out", "lm.arpa"),
    ("synth", "--lexicon", "lexicon.txt", "--lm", "lm.arpa", "--count", "12", "--noise", "0",
     "--seed", "7", "--out", "task"),
    ("decode", "--task", "task", "--lexicon", "lexicon.txt", "--lm", "lm.arpa",
     "--fusion", "nbest", "--lm-weight-nbest", "0.1", "--out", "results.jsonl"),
    ("score", "--task", "task", "--results", "results.jsonl", "--out", "score.json"),
    ("sweep", "--task", "task", "--lexicon", "lexicon.txt", "--lm", "lm.arpa",
     "--which", "nbest", "--grid", "0,0.05,0.1", "--out", "curve.csv"),
    ("train-scorer", "--task", "task", "--heads", "2", "--epochs", "30", "--seed", "0",
     "--out", "model.ckpt"),
    ("decode", "--task", "task", "--scorer", "model.ckpt", "--lexicon", "lexicon.txt",
     "--lm", "lm.arpa", "--fusion", "beam", "--lm-weight", "0.1",
     "--coverage-weight", "0.3", "--coverage-threshold", "1.5", "--out", "scored.jsonl"),
)
CLI_HASHED = (
    "l.fst", "l.fst.isyms", "l.fst.osyms", "lm.arpa",
    "task/lexicon.txt", "task/phones.syms", "task/lm.arpa", "task/utterances.jsonl", "task/meta.json",
    "results.jsonl", "score.json", "curve.csv",
)
CLI_MANIFESTS = (
    "l.fst.manifest.json", "lm.arpa.manifest.json", "task/manifest.json", "results.jsonl.manifest.json",
    "score.json.manifest.json", "curve.csv.manifest.json", "model.ckpt.manifest.json",
    "scored.jsonl.manifest.json",
)


def _load_bench(name: str):
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))  # workloads.py imports checks.py by name
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collect(name: str, seed: int, workdir: Path):
    """One round of workload ``name`` at ``seed``, in its golden form."""
    import fusedec

    workloads, tracing = _load_bench("workloads"), _load_bench("tracing")
    workload = workloads.WORKLOADS[name](seed, workdir)
    state = workload.setup()
    log = tracing.DecodeLog(fusedec.decoder)
    try:
        workload.run_round(state)
    finally:
        log.restore()
    records = [result.to_dict() for _, _, _, result in log.records]
    if name == "las_decode":
        return records
    points: dict[str, list[dict]] = {}
    for record in records:
        probe = "probe " if record["uid"] == workloads.PROBE_UID else ""
        key = f"{probe}{record['strategy']} {json.dumps(record['config'], sort_keys=True)}"
        points.setdefault(key, []).append(record)
    return {key: _digest(group) for key, group in points.items()}


def collect_cli(workdir: Path) -> dict:
    """The README quickstart and a scorer's train and decode, run from
    ``workdir``, in their golden form."""
    from fusedec.cli import main

    (workdir / "lexicon.txt").write_text("I\tay\neye\tay\nam\tae m\n", encoding="utf-8")
    (workdir / "corpus.txt").write_text("I am\nI am\nI am\neye\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CLI_STEPS:
            if main(list(argv)) != 0:
                raise RuntimeError(f"fusedec {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)
    got = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in CLI_HASHED}
    for name in CLI_MANIFESTS:
        manifest = json.loads((workdir / name).read_text(encoding="utf-8"))
        del manifest["duration_s"]
        manifest["inputs"].pop("model.ckpt", None)
        got[name] = manifest
    trace = (workdir / "model.ckpt.loss.csv").read_text(encoding="utf-8").splitlines()[1:]
    got["model.ckpt.loss.csv"] = [float(line.split(",")[1]) for line in trace]
    lines = (workdir / "scored.jsonl").read_text(encoding="utf-8").splitlines()
    got["scored.jsonl"] = [json.loads(line) for line in lines]
    return got


def _digest(records: list[dict]) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()


def differences(want, got, where: str = "") -> list[str]:
    """Where ``got`` departs from ``want``: floats within ``REL_TOL``
    relative, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(want, got, rel_tol=REL_TOL):
            return []
        return [f"{where}: {got!r}, expected {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)}, expected {sorted(want)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries, expected {len(want)}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in differences(w, g, f"{where}/{i}")]
    if type(want) is not type(got) or want != got:
        return [f"{where}: {got!r}, expected {want!r}"]
    return []


def golden_path(seed: int) -> Path:
    return HERE / f"seed{seed}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check", action="store_true", help="compare with the stored file, write nothing")
    parser.add_argument("--cli", action="store_true", help="the CLI outputs (cli.json) instead of the workloads")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.cli:
            path, got = CLI_PATH, collect_cli(Path(tmp))
        else:
            path = golden_path(args.seed)
            got = {name: collect(name, args.seed, Path(tmp)) for name in WORKLOADS}
    if not args.check:
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        return 0
    found = differences(json.loads(path.read_text(encoding="utf-8")), got)
    for line in found:
        print(line)
    print(f"{len(found)} differences from {path}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
