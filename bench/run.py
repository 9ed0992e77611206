"""Benchmark of the freebycyclic pipeline on the paper's running example.

    python3 bench/run.py --workload {survey,deep_section,corpus}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` beside this
directory and nowhere else.  One process runs one workload as a closed
loop with a single caller: passes run back to back, and a new pass starts
only while the time so far plus the median pass (each with a set-up probe
before it, untraced) stays within ``--seconds``.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics: ``wall_s`` (median pass), ``setup_s`` (median of fresh processes,
one spawned before each pass, timed from spawn to ready for the first
pass) and ``peak_rss_mib``.  Both times are corrected for the host's
speed by ``speed.py``; the raw times are in the metadata.  With
``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics of ``spans.py`` plus the tracing overhead;
the spans go to ``bench/out/``.  The line before it holds the run's
metadata.  A failed or wrong operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20260823
SETUP_PROBES = 15
SAMPLE_PERIOD = 0.01  # seconds between host-speed samples


def load_package() -> None:
    """Make ``freebycyclic`` importable from this checkout's src/ only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import freebycyclic
    except ImportError as exc:
        sys.exit(f"bench: cannot import freebycyclic from {SRC}: {exc}")
    found = Path(freebycyclic.__file__).resolve().parent.parent
    if found != SRC:
        sys.exit(f"bench: freebycyclic came from {found}, not {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("survey", "deep_section", "corpus"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its ready line, raw
    and corrected for the host speed the interpreter sampled."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    try:
        ready = json.loads(line)
    except ValueError:
        ready = None
    if proc.returncode != 0 or not isinstance(ready, dict):
        sys.exit(f"bench: set-up probe failed with exit {proc.returncode}")
    # interpreter start-up, before the child's sampler runs, is rescaled
    # by the child's mean kernel time
    unsampled = elapsed - ready["sampled_s"]
    return elapsed, (unsampled * speed.REFERENCE_S / ready["kernel_s"]
                     + ready["corrected_s"])


def setup_probe(args) -> int:
    """The child side of ``probe_setup``: set up under the sampler."""
    sampler = speed.Sampler(SAMPLE_PERIOD)
    start = time.perf_counter()
    with sampler.running():
        load_package()
        import workloads
        workloads.setup(args.workload, args.seed)
    print(json.dumps({"sampled_s": time.perf_counter() - start,
                      "corrected_s": sampler.corrected(),
                      "kernel_s": sampler.kernel_s}), flush=True)
    return 0


def timed_pass(run_pass, ctx, tally) -> float:
    gc.collect()
    start = time.perf_counter()
    run_pass(ctx, tally)
    return time.perf_counter() - start


def sampled_pass(run_pass, ctx, tally, sampler) -> tuple[float, float]:
    """Wall time of one pass, sampler included, and the pass's corrected
    time."""
    gc.collect()
    start = time.perf_counter()
    with sampler.running():
        run_pass(ctx, tally)
    return time.perf_counter() - start, sampler.corrected()


def untraced_run(run_pass, ctx, tally, seconds: float, probe) -> dict:
    """Set-up probes and passes in turn for ``seconds``, so that the
    probes sample the same stretch of time as the passes."""
    sampler = speed.Sampler(SAMPLE_PERIOD)
    walls, corrected, setups, rounds = [], [], [], []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        setups.append(probe())
        wall, fixed = sampled_pass(run_pass, ctx, tally, sampler)
        walls.append(wall)
        corrected.append(fixed)
        rounds.append(time.perf_counter() - round_start)
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return {"walls": walls, "corrected_walls": corrected,
            "setups": [raw for raw, _ in setups],
            "corrected_setups": [fixed for _, fixed in setups]}


def traced_run(run_pass, ctx, tally, seconds: float, spans_path: Path
               ) -> dict:
    recorder = spans.SpanRecorder()
    untraced, traced, layers = [], [], []
    while not traced or (sum(untraced) + sum(traced)
                         + statistics.median(untraced)
                         + statistics.median(traced) <= seconds):
        untraced.append(timed_pass(run_pass, ctx, tally))
        offset = len(recorder.spans)
        with recorder.installed():
            traced.append(timed_pass(run_pass, ctx, tally))
        layers.append(recorder.pass_metrics(offset))
    recorder.write(spans_path)
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = \
        statistics.median(traced) - statistics.median(untraced)
    return {"walls": untraced, "traced_walls": traced, "metrics": metrics,
            "units": spans.metric_units()}


def metadata(args, run: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "freebycyclic").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(run["walls"]) + len(run.get("traced_walls", ())),
        "pass_walls_s": run["walls"],
        "corrected_pass_walls_s": run.get("corrected_walls"),
        "traced_pass_walls_s": run.get("traced_walls"),
        "setup_probes_s": run.get("setups"),
        "corrected_setup_probes_s": run.get("corrected_setups"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    load_package()
    import workloads

    ctx = workloads.setup(args.workload, args.seed)
    tally = workloads.Tally()
    run_pass = workloads.PASSES[args.workload]
    if args.trace:
        run = traced_run(run_pass, ctx, tally, args.seconds,
                         BENCH / "out" / f"spans_{args.workload}_"
                                         f"{args.seed}.jsonl")
        metrics = {name: {"value": run["metrics"][name], "unit": unit}
                   for name, unit in run["units"].items()}
    else:
        run = untraced_run(run_pass, ctx, tally, args.seconds,
                           lambda: probe_setup(args.workload, args.seed))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(run["corrected_walls"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(run["corrected_setups"]),
                        "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    for error in tally.errors[:5]:
        print(error, file=sys.stderr)
    print(f"bench: {args.workload}: {tally.failed} of {tally.attempted} "
          f"operations failed (fail_ratio "
          f"{tally.failed / tally.attempted:g})", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, run)}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
