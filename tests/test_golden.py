"""Decodes of the benchmark's workloads must not move between versions.

``tests/golden/seed1.json`` holds one round of each workload at seed 1, as
``tests/golden/regenerate.py`` collects it.  A refactor that claims
byte-identical outputs passes here unchanged; one that moves a record
fails, naming the config or sweep point that moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).resolve().parent / "golden"


def _regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", _GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["noisy_sweep", "trigram_lexicon", "las_decode"])
def test_round_matches_the_golden_outputs(name, tmp_path):
    golden = _regenerate()
    want = json.loads(golden.golden_path(1).read_text(encoding="utf-8"))[name]
    got = golden.collect(name, 1, tmp_path)
    assert golden.differences(want, got, name) == []


def test_cli_matches_the_golden_outputs(tmp_path, capsys):
    golden = _regenerate()
    want = json.loads(golden.CLI_PATH.read_text(encoding="utf-8"))
    got = golden.collect_cli(tmp_path)
    capsys.readouterr()
    assert golden.differences(want, got, "cli") == []
