"""Benchmark fusedec on one workload and print its metrics.

    python3 bench/run.py --workload noisy_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; the package is imported from ``src/``.  One
process runs one workload single-threaded: set-up is timed several times,
then whole rounds of decodes run for about ``--seconds``, and every decode
is checked.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each round untraced and then traced, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``bench/out/``.  ``--workload all`` runs every workload, each in a fresh
process.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
_clock = time.perf_counter


def _import_program():
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    try:
        import fusedec
    except ImportError as e:
        sys.exit(f"bench: cannot import fusedec from {HERE.parent / 'src'}: {e}")
    return fusedec


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    fusedec = _import_program()
    import calibrate
    import report
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    speed = calibrate.Speedometer()
    tracer = tracing.Tracer()
    log = tracing.DecodeLog(fusedec.decoder, before=None if trace else speed.maybe_sample)
    if trace:
        tracing.install(tracer, fusedec)
    problems: list[str] = []
    if _threads() != 1:
        problems.append(f"process runs {_threads()} threads, expected 1")

    setups, setup_stats, setup_keys = [], [], set()
    for _ in range(workload.setup_repeats):
        speed.maybe_sample()
        tracer.active = trace
        with tracer.span("setup"):
            t0 = _clock()
            state = workload.setup()
            setups.append((t0, _clock() - t0))
        tracer.active = False
        setup_stats.append(tracer.take())
        setup_keys.add(workload.setup_key(state))
    if len(setup_keys) != 1:
        problems.append("repeated set-ups built different results")

    tracer.phase = "decode"
    attempted = failed = 0
    rounds, traced_stats, overheads = [], [], []
    ops: dict[tuple[str, int], list[tuple[float, float]]] = {}
    first_unparsed = first_decodes = None
    deadline = _clock() + seconds
    index, last = 0, 0.0
    # Whole rounds only; another starts if it should end within half a
    # round of the deadline, so a run measures about --seconds.
    while index == 0 or _clock() + last / 2 < deadline:
        started = _clock()
        for traced in (False, True) if trace else (False,):
            speed.sample()
            log.records.clear()
            spent = speed.spent
            tracer.active = traced
            with tracer.span("round"):
                t0 = _clock()
                output = workload.run_round(state)
                elapsed = _clock() - t0 - (speed.spent - spent)
            tracer.active = False
            outcome = workload.check_round(state, log.records, output)
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
            if outcome.attempted != workload.ops_per_round:
                problems.append(f"round {index}: {outcome.attempted} decodes, expected {workload.ops_per_round}")
            if traced:
                traced_stats.append(tracer.take())
                overheads.append(elapsed / rounds[-1][1] - 1.0)
                if first_unparsed is None:
                    first_unparsed = sum(getattr(r[3], "unparsed", 0) for r in log.records)
                    first_decodes = len(log.records)
                continue
            tracer.take()
            decoding = 0.0
            seen: dict[str, int] = {}
            for uid, start, dt, _ in log.records:
                if uid in workload.latency_skip:
                    continue
                occurrence = seen[uid] = seen.get(uid, -1) + 1
                ops.setdefault((uid, occurrence), []).append((start, dt))
                decoding += dt
            rounds.append((t0, elapsed, decoding))
        index += 1
        last = _clock() - started
    speed.sample()
    log.restore()
    tracer.restore()
    problems += workload.final_problems()

    if trace:
        metrics = report.per_layer(
            setup_stats, traced_stats, first_decodes, first_unparsed,
            getattr(state[0], "lg", None), statistics.median(overheads), set(tracer.absent),
        )
        _write_trace(name, seed, tracer, setup_stats, traced_stats, overheads)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = report.end_to_end(setups, rounds, ops, speed.scale, peak_mb)
        raw = report.end_to_end(setups, rounds, ops, lambda start, s: s, peak_mb)
        print("raw timings: " + ", ".join(
            f"{k} {m['value']:.6g} {m['unit']}" for k, m in raw.items() if k != "peak_rss_mb"
        ) + f"; calibration loop median {statistics.median(speed.loop_s) * 1e3:.3f} ms", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for span, where in sorted(tracer.absent.items()):
        print(f"absent: {span} ({where} not found)", file=sys.stderr)
    print(f"{name} seed {seed}: {index} rounds, {attempted} decodes, {failed} failed", file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _write_trace(name, seed, tracer, setup_stats, traced_stats, overheads) -> None:
    def unit(s):
        return {k: {"calls": s.calls[k], "total_s": s.total[k], "self_s": s.self_s[k]} for k in sorted(s.calls)}

    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": name,
        "seed": seed,
        "absent": tracer.absent,
        "setups": [unit(s) for s in setup_stats],
        "rounds": [unit(s) for s in traced_stats],
        "overhead_share": overheads,
        "spans": [{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in tracer.spans],
    }
    (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    names = ("noisy_sweep", "trigram_lexicon", "las_decode")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*names, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        ok = True  # each workload in its own fresh interpreter
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ok &= subprocess.run(cmd, check=False).returncode == 0
        return 0 if ok else 1
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
