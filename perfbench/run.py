"""The repository benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with spans around each layer's entry points and reports
the per-layer metrics instead.  Diagnostics go to standard error; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer, or a count
fingerprint that does not repeat, exits with status 1 and prints no
result.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("plan-cold", "eval-warm", "update-mix", "serve-mix")
#: String hash seed the measured process runs with (see ``main``).
HASH_SEED = "0"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _arguments(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # gcov breaks cost ties in set-iteration order, which follows the
        # per-process string hash seed: unpinned, the same query explores
        # a different number of covers in each process.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program to measure: {source}/repro is missing\n")
        return 2
    # Turn a termination request into an exit that runs every cleanup,
    # so that serve-mix's server is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if source not in sys.path:
        sys.path.insert(0, source)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None, root: str = ROOT) -> int:
    """Run one workload and print its result line; returns the exit code.

    ``root`` holds the run's outputs (``.perfbench/``) and, for
    serve-mix, the program's ``src``; ``scale`` overrides the input sizes
    (the self-tests use a tiny one).
    """
    import library
    import served
    import stats
    from measure import (
        E2E_UNITS,
        PER_LAYER,
        BenchmarkFailure,
        Traced,
        describe,
        emit,
        end_to_end,
        layer_metrics,
        note,
        peak_rss_mb,
    )
    from oracle import WrongAnswer

    functions = dict(library.WORKLOADS)
    functions["serve-mix"] = served.serve_mix
    traced = Traced() if trace else None
    kwargs = {} if scale is None else {"scale": scale}
    try:
        samples = functions[workload](root, seed, seconds, traced, **kwargs)
    except WrongAnswer as error:
        note(f"perfbench: WRONG ANSWER on {workload} (seed {seed}): {error}")
        return 1
    except BenchmarkFailure as error:
        note(f"perfbench: {workload} (seed {seed}) failed: {error}")
        return 1
    for failure in samples.failures[:20]:
        note(f"{workload}: failed operation: {failure}")
    note("wall-clock figures (the gated metrics below are at nominal host speed):")
    ms = [1000.0 * s for s in samples.answer_s]
    note(describe("answer_ms" if workload != "serve-mix" else "request_ms", ms))
    note(f"error_rate: {samples.failed}/{samples.attempted} = {samples.failed / max(1, samples.attempted):.4f}")
    if samples.write_s:
        note(describe("write_ms", [1000.0 * s for s in samples.write_s]))
        fresh = [s for values in samples.fresh_s.values() for s in values]
        note(describe("fresh_answer_ms", [1000.0 * s for s in fresh]))
        for strategy, values in sorted(samples.fresh_s.items()):
            note(describe(f"fresh_answer_ms[{strategy}]", [1000.0 * s for s in values]))
    if samples.unit_rates:
        line = f"answers_per_s: median {stats.median(samples.unit_rates):.3f} over {len(samples.unit_rates)} units"
        if len(samples.unit_rates) >= 2:
            line += f", quartile spread {stats.quartile_spread(samples.unit_rates):.3f}"
        note(line)
    note(f"host speed factor: {samples.ruler.factor():.4f} "
         f"(median of {len(samples.ruler.samples)} reference samples)")
    if trace:
        values = layer_metrics(traced)
        spans_dir = os.path.join(root, ".perfbench", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{workload}-seed{seed}.tsv")
        traced.log.write(path)
        note(f"{len(traced.log)} spans written to {os.path.relpath(path, root)}")
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    else:
        rss = peak_rss_mb(children=workload == "serve-mix")
        values = end_to_end(workload, samples, rss)
        note(f"setup_s samples (wall clock): {', '.join(f'{s:.3f}' for s in samples.setup_s)}")
        metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    for name, (value, unit) in metrics.items():
        note(f"  {name:<40} {value:>14.4f} {unit}")
    emit(True, samples.attempted, samples.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
