"""The CLI mutation fuzzer of ``test_fuzz_cli.py``, run longer and with
fresh randomness.

    PYTHONPATH=src python tests/fuzz_cli_deep.py --examples 3000

It builds the quickstart in a temporary directory and checks the same
property over ``--examples`` mutations (``--seed`` makes a run repeatable).
A failing example is shrunk and printed by ``hypothesis``, and the script
exits non-zero.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_fuzz_cli import build_quickstart, check_mutation, mutations  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=3000, help="mutations to try")
    parser.add_argument("--seed", type=int, default=None, help="hypothesis seed; fresh when absent")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        readers, _ = build_quickstart(root)

        @settings(max_examples=args.examples, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(mutation=mutations(root, readers))
        def property_(mutation):
            check_mutation(root, readers, *mutation)

        if args.seed is not None:
            property_ = seed(args.seed)(property_)
        property_()
    print(f"{args.examples} mutations: every run exited 0, 1 or 2, and every failure printed one line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
