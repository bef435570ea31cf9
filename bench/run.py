"""gibbs-stein benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 bench/run.py --workload compare_large --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): compare_large, cli_small_reports, bernoulli_sums.
The library is imported from ./src of the checkout and driven only through
its public functions, from this one process with one caller in a closed
loop: the next operation starts when the previous one has returned.  BLAS
and OpenMP pools are pinned to one thread.

The seed makes the inputs: pass i of the timed loop runs, in order, a deck
drawn from the generator seeded with (seed, i), so no input repeats within
a run.  Decks are drawn between passes and output checks run between
operations, both outside the timed region.  The number of passes depends on
--seconds alone: it is --seconds divided by the workload's reference pass
time (a deck's operation time as measured on a 2-core x86-64 machine),
rounded, and at least one.  So a run lasts about --seconds, and a seed always gives the
same operations, the same failures and the same `attempted`/`failed` counts,
however fast the machine is.  Only a run that passes 3 x --seconds + 30 s of
wall time is cut short mid-pass.

--trace 0 prints the end-to-end metrics:
  ops_per_s          operations attempted per second of operation time
  latency_p50_ms     nearest-rank median of per-operation wall time
  latency_p90_ms     nearest-rank 90th percentile (a run has >= 100 operations)
  success_ratio      1 - fail_ratio; fail_ratio = failed / attempted is printed
                     as well and is the `failed`/`attempted` pair of the result line
  setup_s            median over fresh interpreters of launch -> first operation
                     can start (import gibbs_stein + input generation)
  peak_rss_mb        peak resident memory of this process
  bound_ratio_gmean  geometric mean over the first deck's inputs of certified bound /
                     exact TV (where the exact TV exceeds the 1e-10 check margin), so
                     that it depends on the seed alone

--trace 1 alternates untraced and traced passes, at least one of each, the
traced ones under the span tracer (tracer.py), and prints the per-layer
metrics of the traced passes plus the tracing overhead (untraced against
traced ops_per_s).

An operation fails when it raises, when a CLI call exits nonzero, or when
an output check fails.  `correct` is false when any operation fails for a
cause other than a known defect (see workloads.py): a failed check, or an
error that the known defects do not explain.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the full record, with the
environment and a count per failure cause, is written to .bench_run/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_LAUNCHES = 3
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {  # name -> (unit, better)
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "success_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "bound_ratio_gmean": ("ratio", "lower"),
}


def per_layer_unit(name: str) -> tuple[str, str]:
    if name.endswith("_ms"):
        return "ms", "lower"
    if name.endswith(("_calls", "_triples")):
        return "count", "lower"
    if name.endswith("_scaling"):
        return "slope", "lower"
    if name.endswith("_bytes"):
        return "bytes", "lower"
    if name.endswith("ops_per_s"):
        return "1/s", "higher"
    if name.endswith("_pct"):
        return "%", "lower"
    return "ratio", "lower"


@dataclass
class Phase:
    """Everything one timed loop observed."""

    latencies: list[float] = field(default_factory=list)
    op_seconds: float = 0.0
    passes: int = 0
    causes: Counter = field(default_factory=Counter)
    check_failures: Counter = field(default_factory=Counter)
    ratios: list[float] = field(default_factory=list)
    output_bytes: list[int] = field(default_factory=list)
    cut_short: bool = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


def make_deck(workload, seed: int, index: int) -> list:
    import numpy as np

    return workload.deck(np.random.default_rng([seed, index]), workload.deck_size)


def oracle_ids(workload, deck) -> set[int]:
    """The deck positions that get the high-precision oracle check."""
    from workloads import ORACLE_CASES

    ranked = sorted(range(len(deck)), key=lambda i: workload.oracle_key(deck[i]))
    return {i for i in ranked[:ORACLE_CASES] if math.isfinite(workload.oracle_key(deck[i]))}


def run_pass(workload, deck, op, phase: Phase, deadline: float, tracer=None):
    """Run the whole deck once into `phase`; give up mid-pass only past `deadline`."""
    from stats import gmean
    from workloads import DOMINANCE_TOL, CliFailure, classify

    first = phase.passes == 0
    oracle = oracle_ids(workload, deck)
    for index, rec in enumerate(deck):
        if tracer is not None:
            tracer.begin_op(len(phase.latencies))
        t0 = perf_counter()
        try:
            result = op(rec)
            error = None
        except CliFailure as exc:
            error = exc.cause
        except Exception as exc:  # the loop must go on; the cause is counted
            error = classify(str(exc), type(exc).__name__)
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        phase.latencies.append(elapsed)
        phase.op_seconds += elapsed
        if error is not None:
            phase.causes[error] += 1
        else:
            try:
                checked = workload.check(rec, result, index in oracle)
            except Exception:  # a check that cannot read the output is a failed check
                traceback.print_exc(file=sys.stderr)
                checked = None
            if checked is None or checked.failed:
                names = checked.failed if checked is not None else ["unreadable_output"]
                phase.check_failures.update(names)
                phase.causes[f"check:{names[0]}"] += 1
            elif checked.known:
                phase.causes[f"known:{checked.known[0]}"] += 1
            else:
                usable = [b / tv for b, tv in checked.pairs if tv > DOMINANCE_TOL and b > 0]
                if usable and first:
                    phase.ratios.append(gmean(usable))
                if checked.output_bytes:
                    phase.output_bytes.append(checked.output_bytes)
        if perf_counter() > deadline:
            phase.cut_short = True
            return
    phase.passes += 1


def pass_count(workload, seconds: float) -> int:
    """Decks in one run: fixed by `seconds`, so the work never depends on machine speed."""
    return max(1, round(seconds / workload.pass_seconds))


def run_loop(workload, seed: int, op, seconds: float, tracer=None):
    """The timed loop: a fixed number of whole passes, each over a fresh deck.

    A partial pass would add a random subset of a heavy-tailed cost mix, and
    a pass count read off the clock would make the operations, and so the
    failures, vary between runs of one seed; hence `pass_count`.  With a
    tracer, untraced and traced passes alternate, so that drift in machine
    speed cancels out of the tracing overhead.
    """
    deadline = perf_counter() + 3.0 * seconds + 30.0
    plain, traced = Phase(), Phase()
    passes = pass_count(workload, seconds)
    if tracer is not None:
        passes = max(2, passes)
    for index in range(passes):
        deck = make_deck(workload, seed, index)
        if tracer is None or index % 2 == 0:
            run_pass(workload, deck, op, plain, deadline)
        else:
            tracer.install()
            try:
                run_pass(workload, deck, op, traced, deadline, tracer)
            finally:
                tracer.uninstall()
        if plain.cut_short or traced.cut_short:
            break
    return plain, traced


def launch_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # child's reading is comparable with ours
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def import_breakdown() -> dict[str, float]:
    """Cumulative import times from a fresh `python -X importtime -c "import gibbs_stein"`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gibbs_stein"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
    return {
        "measures.import_ms": cumulative.get("gibbs_stein.measures", 0.0),
        "scipy_stats.import_ms": cumulative.get("scipy.stats", 0.0),
    }


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(phase: Phase, setup: list[float]) -> dict[str, float]:
    from stats import gmean, percentile

    return {
        "ops_per_s": phase.attempted / phase.op_seconds,
        "latency_p50_ms": 1e3 * percentile(phase.latencies, 50),
        "latency_p90_ms": 1e3 * percentile(phase.latencies, 90),
        "success_ratio": 1.0 - phase.failed / phase.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_ratio_gmean": gmean(phase.ratios),
    }


def parse_args(names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    if not (SRC / "gibbs_stein" / "__init__.py").is_file():
        print(f"error: no gibbs_stein package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    args = parse_args(list(WORKLOADS), argv)
    workload = WORKLOADS[args.workload]
    make_deck(workload, args.seed, 0)
    if args.setup_probe:
        print(perf_counter())
        return 0

    import gibbs_stein
    from tracer import Tracer, layer_metrics

    if Path(gibbs_stein.__file__).resolve().parent != (SRC / "gibbs_stein").resolve():
        print(f"error: gibbs_stein imported from {gibbs_stein.__file__}, not {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    op = workload.make_op(str(SCRATCH))

    if args.trace == 0:
        setup = [launch_setup(args.workload, args.seed) for _ in range(SETUP_LAUNCHES)]
        phases = [run_loop(workload, args.seed, op, args.seconds)[0]]
        metrics = end_to_end(phases[0], setup)
        shown = dict(metrics, fail_ratio=phases[0].failed / phases[0].attempted)
        units = dict(END_TO_END, fail_ratio=("ratio", "lower"))
    else:
        imports = [import_breakdown() for _ in range(IMPORTTIME_LAUNCHES)]
        tracer = Tracer()
        plain, traced = run_loop(workload, args.seed, op, args.seconds, tracer)
        phases = [plain, traced]
        metrics = layer_metrics(tracer, traced.attempted, traced.op_seconds)
        for name in imports[0]:
            metrics[name] = statistics.median(run[name] for run in imports)
        metrics["cli.output_bytes"] = (
            statistics.fmean(traced.output_bytes) if traced.output_bytes else 0.0
        )
        traced_rate = traced.attempted / traced.op_seconds
        plain_rate = plain.attempted / plain.op_seconds
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = plain_rate
        metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
        tracer.write(str(SCRATCH / f"spans-{args.workload}-seed{args.seed}.csv.gz"))
        shown = metrics
        units = {name: per_layer_unit(name) for name in metrics}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    causes = sum((p.causes for p in phases), Counter())
    check_failures = sum((p.check_failures for p in phases), Counter())
    env = environment(args)
    record = {
        "environment": env,
        "metrics": {name: {"value": v, "unit": units[name][0], "better": units[name][1]}
                    for name, v in shown.items()},
        "attempted": attempted,
        "failed": failed,
        "failure_causes": dict(causes),
        "check_failures": dict(check_failures),
        "deck_size": workload.deck_size,
        "deck_passes": [p.passes for p in phases],
        "cut_short": any(p.cut_short for p in phases),
    }
    with open(SCRATCH / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    print("environment: " + json.dumps(env, sort_keys=True))
    for name, value in shown.items():
        unit, better = units[name]
        print(f"metric {name} = {value!r} {unit} ({better} is better)")
    print(f"samples: attempted={attempted} failed={failed} latency_samples={phases[0].attempted} "
          f"deck_size={workload.deck_size} deck_passes={record['deck_passes']}")
    print("failure causes: " + (json.dumps(dict(causes), sort_keys=True) if causes else "none"))
    result = {
        "correct": all(cause.startswith("known:") for cause in causes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
