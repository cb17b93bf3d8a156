"""Benchmark of the sparseknap library: three workloads, one closed-loop caller.

Run from the root of a source checkout:

    python3 bench/run.py --workload cutloop --seed 1 --seconds 28 --trace 0

One process drives one caller in a closed loop: the next call starts only
after the previous one returned, and no threads are used.  The library is
imported from ``src/`` of the checkout; nothing is installed.  Each run

* generates its inputs from ``--seed`` (``workloads.py``),
* times calls into the public functions of ``sparseknap`` until the calls
  have been busy for ``--seconds`` seconds, checking every output outside
  the timed region, and times a fixed reference job before each call to
  scale the times to a reference machine speed (``calibrate.py``),
* recomputes the outputs of a fixed set of inputs and compares their digest
  with the one stored in ``digests.json``,
* runs the oracle gate on small instances (``gate.py``),

and prints a human-readable summary followed, as its last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
layers' entry points are wrapped in spans (``tracing.py``) and the metrics
are per layer.  ``--record-digests`` rewrites ``digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")

# set-up is repeated in fresh processes and reported as the median
SETUP_SAMPLES = 7
# calls at the golden seed whose outputs digests.json pins: one round of
# cutloop, the small and the first medium models of models
GOLDEN_CALLS = 11
# a run never keeps calling for longer than this many times --seconds
WALL_FACTOR = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}


def _import_library():
    """Import ``sparseknap`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import sparseknap
    except ImportError as exc:
        raise SystemExit(f"error: cannot import sparseknap from {SRC}: {exc}")
    if not os.path.abspath(sparseknap.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: sparseknap was imported from {sparseknap.__file__}, not {SRC}")


_import_library()

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
from stats import Digest, median, percentile, samples_beyond  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS, CheckFailed  # noqa: E402


class Loop:
    """Outcome of one closed-loop pass over a workload's calls."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        # seconds of the reference job timed just before each call
        self.references: list[float] = []
        self.output_bytes: list[int | None] = []
        self.failures: list[str] = []
        self.digest = Digest()

    @property
    def busy_s(self) -> float:
        return sum(self.durations)


def closed_loop(workload, call, seconds: float, max_calls: int | None = None) -> Loop:
    """Call ``call(spec)`` on the workload's specs in order, one at a time,
    until the calls were busy for ``seconds`` and the last round is whole
    (or ``max_calls`` were made).  Each output is checked after its call
    returned, outside the timing.

    Whole rounds give every run the same mix of calls; a run cut inside a
    round drops a different share of each kind, which moved the median of
    ``models`` by 5-10%."""
    loop = Loop()
    clock = time.perf_counter
    wall_end = clock() + WALL_FACTOR * seconds
    specs = workload.specs
    i = 0
    while (loop.busy_s < seconds or i % workload.round_size) and clock() < wall_end:
        if max_calls is not None and i >= max_calls:
            break
        spec = specs[i % len(specs)]
        i += 1
        workload.prepare(spec)
        loop.references.append(calibrate.time_reference())
        # start every call from an empty collector, so that the garbage of
        # earlier calls is not collected on this one's time
        gc.collect()
        started = clock()
        try:
            output = call(spec)
        except Exception as exc:  # a raising call is a failed call
            loop.durations.append(clock() - started)
            loop.output_bytes.append(None)
            loop.failures.append(f"call {i}: {type(exc).__name__}: {exc}")
            continue
        loop.durations.append(clock() - started)
        try:
            payload = workload.check(spec, output)
        except CheckFailed as exc:
            loop.output_bytes.append(None)
            loop.failures.append(f"call {i}: {exc}")
            continue
        loop.output_bytes.append(len(payload))
        loop.digest.add(payload)
    return loop


def tracing_overhead(workload, seconds: float) -> float:
    """Traced over untraced busy time of the same calls.

    Each call is made once untraced and once traced, alternating which goes
    first, so that both see the same machine speed; the pairs run until the
    untraced calls were busy for ``seconds``.  The spans of this measurement
    are thrown away.
    """
    clock = time.perf_counter
    busy = {False: 0.0, True: 0.0}
    probe = tracing.Tracer()
    traced_call = probe.wrap(workload.call, tracing.ROOT)
    i = 0
    while busy[False] < seconds:
        spec = workload.specs[i % len(workload.specs)]
        workload.prepare(spec)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracing.install_layers(probe)
            try:
                gc.collect()
                started = clock()
                (traced_call if traced else workload.call)(spec)
                busy[traced] += clock() - started
            finally:
                probe.uninstall()
        i += 1
    return busy[True] / busy[False]


def golden_run(name: str) -> Loop:
    """The first calls at the golden seed, whose output digest is pinned."""
    workdir = os.path.join(WORKDIR, f"golden-{name}-{os.getpid()}")
    try:
        workload = WORKLOADS[name](GOLDEN_SEED, workdir)
        return closed_loop(workload, workload.call, float("inf"), GOLDEN_CALLS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process to its first possible call:
    interpreter start, imports and input generation.  Returns the samples
    as measured and scaled to the reference speed by the reference jobs
    timed between them."""
    samples = []
    # the first reference job of a process pays for warming up
    calibrate.time_reference()
    references = []
    for _ in range(SETUP_SAMPLES):
        references += [calibrate.time_reference() for _ in range(3)]
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed with exit code {code}")
        samples.append(ready - started)
    factor = calibrate.speed_factor(references)
    return samples, [sample * factor for sample in samples]


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".s") or metric.endswith("self_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def end_to_end(
    loop: Loop, setup_scaled: list[float], peak_rss_mb: float, golden: Loop
) -> dict[str, float]:
    factor = calibrate.speed_factor(loop.references)
    ms = [d * 1000 * factor for d in loop.durations]
    return {
        "setup_s": median(setup_scaled),
        "call_p50_ms": percentile(ms, 50),
        "call_p90_ms": percentile(ms, 90),
        "calls_per_s": len(ms) / (sum(ms) / 1000),
        "peak_rss_mb": peak_rss_mb,
        # the golden calls' outputs: the same inputs on every run and commit
        "output_mb": sum(b for b in golden.output_bytes if b is not None) / 1e6,
    }


def run(args) -> int:
    name, seed = args.workload, args.seed
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = os.path.join(WORKDIR, f"{name}-{seed}-{os.getpid()}")
    setup, setup_scaled = ([], []) if args.trace else measure_setup(name, seed)
    try:
        workload = WORKLOADS[name](seed, workdir)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_layers(tracer)
            try:
                loop = closed_loop(workload, tracer.wrap(workload.call, tracing.ROOT), args.seconds)
            finally:
                tracer.uninstall()
            # the pairs repeat calls without checking them; after a failure
            # the run is incorrect and reports no ratio
            overhead = 0.0 if loop.failures else tracing_overhead(workload, args.seconds / 5)
            metrics = tracing.layer_metrics(tracer, len(loop.durations), overhead)
        else:
            loop = closed_loop(workload, workload.call, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    golden_loop = golden_run(name)
    golden = golden_loop.digest.hexdigest()
    with open(DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh).get(name)
    if not args.trace:
        metrics = end_to_end(loop, setup_scaled, peak_rss_mb, golden_loop)
    gate_cases, gate_failures = gate.run_gate(name, seed)

    failures = loop.failures + golden_loop.failures + gate_failures
    if golden != stored:
        failures.append(f"golden digest {golden} differs from stored {stored}")
    attempted = len(loop.durations) + 1 + gate_cases
    failed = len(loop.failures) + (1 if golden_loop.failures or golden != stored else 0)
    failed += len(gate_failures)

    ms = loop.durations
    print(f"workload {name}, seed {seed}: one caller, closed loop, "
          f"{len(ms)} calls busy {loop.busy_s:.2f} s"
          + (" (traced)" if args.trace else ""))
    if not args.trace:
        raw = [d * 1000 for d in ms]
        print(f"  p90 has {samples_beyond(raw, 90)} samples beyond it; "
              f"unscaled set-up samples {', '.join(f'{s:.3f}' for s in setup)} s")
        print(f"  unscaled: p50 {percentile(raw, 50):.2f} ms, p90 {percentile(raw, 90):.2f} ms, "
              f"{len(raw) / loop.busy_s:.3f} calls/s; reference job median "
              f"{1000 * median(loop.references):.3f} ms against "
              f"{1000 * calibrate.REFERENCE_S:.3f} ms")
    print(f"  error_rate {failed / attempted:.6f} ({failed} of {attempted}: "
          f"{len(ms)} calls, 1 golden digest, {gate_cases} oracle gate cases)")
    print(f"  golden digest {golden} " + ("matches" if golden == stored else "DIFFERS"))
    for problem in failures[:20]:
        print(f"  FAILED {problem}")
    if args.trace:
        spans = os.path.join(WORKDIR, f"trace-{name}-{seed}.tsv")
        tracer.write_spans(spans)
        print(f"  {len(tracer.start)} spans written to {os.path.relpath(spans, ROOT)}")
        print("  layer self-time shares of busy time:")
        for layer, share in sorted(tracing.layer_shares(tracer).items(), key=lambda kv: -kv[1]):
            print(f"    {layer:28s} {100 * share:6.2f}%")
    for metric, value in metrics.items():
        print(f"  {metric} {value:.6g} {_unit(metric)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in metrics.items()},
    }))
    return 0


def record_digests() -> int:
    digests = {}
    for name in WORKLOADS:
        golden = golden_run(name)
        if golden.failures:
            print("\n".join(golden.failures), file=sys.stderr)
            return 1
        digests[name] = digest = golden.digest.hexdigest()
        print(f"{name} {digest}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the golden inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workdir = os.path.join(WORKDIR, f"probe-{os.getpid()}")
        WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
