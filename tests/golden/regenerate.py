"""Golden decode outputs of the benchmark's three workloads.

    PYTHONPATH=src python3 tests/golden/regenerate.py [--seed 1] [--check]

Builds one round of each workload in ``bench/workloads.py`` at ``--seed``
and writes what it decoded to ``tests/golden/seed<N>.json``; ``--check``
compares against that file instead and prints each difference.
``tests/test_golden.py`` pins seed 1.

- ``noisy_sweep`` and ``trigram_lexicon`` (its order-3 probe included) are
  stored as one SHA-256 per config or sweep point, over the sorted-key JSON
  of that point's ``to_dict()`` records in decode order, so a failure names
  the point that moved.
- ``las_decode`` is stored whole: its words must match exactly and its
  floats within 1e-9 relative, since the model's costs may move in their
  last bits while no decoded word may change.

Regenerating is a change to a check: say which records moved and why.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent.parent / "bench"
WORKLOADS = ("noisy_sweep", "trigram_lexicon", "las_decode")
REL_TOL = 1e-9


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
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        got = {name: collect(name, args.seed, Path(tmp)) for name in WORKLOADS}
    path = golden_path(args.seed)
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
