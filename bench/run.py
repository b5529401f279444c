"""Benchmark for bergefactor: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's `src/`, never from an installed copy; without it the script
exits 1 and prints no result.

Set-up imports the package, generates the workload's instances from the
seed, writes them as files under `.bench_work/` and runs one warm-up op.
Generation, writing and warm-up run SETUP_REPS times and `setup_s` is the
import time plus their median.  The run then sends one op at a time,
cycling through the instances, until `--seconds` have passed and at
least MIN_TAIL samples lie above p90.  Every op's output is checked
outside its timed span.  End-to-end times are scaled to a reference host
speed (see REF_S); the summary line also gives them as timed.

With `--trace 0` nothing is wrapped and the end-to-end metrics are
reported.  With `--trace 1` each instance runs twice, once under the
span tracer and once without it (alternating which goes first), and the
per-layer metrics are reported.  Each run prints a `key=value` summary
line and then, as its last line, one JSON object.  The exit code is 0
unless an op raised or gave an answer the check rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
# Instances generated per seed, about as many as one 25-s run gets
# through: the more distinct instances a run sees, the smaller the
# seed-to-seed spread.
COUNTS = {"census": 512, "factor-large": 256, "nofactor-large": 256,
          "criterion": 640}
MIN_TAIL = 10
HARD_STOP_S = 150.0
# The host is shared, and its speed drifts by up to 1.6x within a minute
# (a fixed pure-Python loop ran 89 to 153 times per second over 1-s
# windows).  End-to-end times are therefore reported at reference speed:
# a raw time is multiplied by REF_S over the median duration of the last
# REF_WINDOW runs of `reference_loop`, timed just before each op.  On
# the host these figures come from, the loop's median duration is about
# REF_S, so reported times are close to raw ones there.
REF_S = 4.0e-4
REF_WINDOW = 15

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bergefactor
        import bergefactor.cli  # noqa: F401  (binds bergefactor.cli)
    except ImportError as e:
        sys.exit(f"error: cannot import bergefactor from {src}: {e}")
    if not Path(bergefactor.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: bergefactor was imported from {bergefactor.__file__},"
                 f" not from {src}")
    return bergefactor


def set_up(bf, wl, seed: int, workdir: Path):
    """Generate, write and warm up; returns (instances, paths)."""
    insts = workloads.instances(wl.name, seed, COUNTS[wl.name])
    paths = []
    for i, inst in enumerate(insts):
        path = workdir / f"{i:04d}{inst.suffix}"
        path.write_text(inst.text)
        paths.append(str(path))
    smallest = min(range(len(insts)), key=lambda i: len(insts[i].text))
    outcome = wl.check(bf, insts[smallest],
                       wl.op(bf, paths[smallest], insts[smallest]))
    if outcome not in (workloads.OK, workloads.REFUSED):
        sys.exit(f"error: warm-up op on instance {smallest} failed: {outcome}")
    return insts, paths


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no package
    code, so its duration tracks only the host's speed."""
    t = time.perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        acc += (i * i) % 7
        table[i & 63] = acc
    return time.perf_counter() - t


class HostSpeed:
    """Durations of `reference_loop`, for scaling raw times to REF_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        self.samples.extend(reference_loop() for _ in range(times))

    def factor(self, last: int = REF_WINDOW) -> float:
        """Raw seconds times this factor gives seconds at reference speed."""
        return REF_S / statistics.median(self.samples[-last:])


class Tally:
    """Latencies and outcome counts of attempted ops.  `seconds` are at
    reference speed, `raw_seconds` as timed."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.raw_seconds: list[float] = []
        self.speed = HostSpeed()
        self.ok = 0
        self.refused = 0
        self.wrong = 0
        self.raised = 0

    def run(self, bf, wl, inst, path: str, tracer=None) -> None:
        """Run one op (under `tracer` when given) and check its output."""
        self.speed.sample()
        if tracer is not None:
            tracer.install(bf)
        t = time.perf_counter()
        try:
            res, error = wl.op(bf, path, inst), None
        except Exception as e:
            res, error = None, e
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.restore()
        self.raw_seconds.append(dt)
        self.seconds.append(dt * self.speed.factor())
        if error is not None:
            self.raised += 1
            print(f"op raised on {path}:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
            return
        outcome = wl.check(bf, inst, res)
        if outcome == workloads.OK:
            self.ok += 1
        elif outcome == workloads.REFUSED:
            self.refused += 1
        else:
            self.wrong += 1
            print(f"wrong answer on {path}: {outcome}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return self.ok + self.refused + self.wrong + self.raised

    @property
    def failed(self) -> int:
        return self.wrong + self.raised

    def p(self, q: int, raw: bool = False) -> float:
        """The q-th percentile of op latency, in seconds."""
        xs = self.raw_seconds if raw else self.seconds
        if len(xs) < 2:
            return xs[0] if xs else 0.0
        return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]

    def tail(self) -> int:
        """Samples above p90."""
        p90 = self.p(90)
        return sum(1 for s in self.seconds if s > p90)


def measure(bf, wl, insts, paths, seconds: float, trace: bool):
    """Closed loop over the instances; returns the untraced tally, and
    for a traced run also the traced tally and its tracer."""
    plain = Tally()
    traced = Tally() if trace else None
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    i = 0
    while True:
        j = i % len(insts)
        if trace:
            tracer.op = i
            runs = [(traced, tracer), (plain, None)]
            if i % 2:
                runs.reverse()
            for tally, tr in runs:
                tally.run(bf, wl, insts[j], paths[j], tr)
        else:
            plain.run(bf, wl, insts[j], paths[j])
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= seconds and (trace or plain.tail() >= MIN_TAIL):
            break
    return plain, traced, tracer


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    speed = HostSpeed()
    speed.sample(REF_WINDOW)
    t = time.perf_counter()
    bf = import_package()
    import_s = time.perf_counter() - t
    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reps = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            insts, paths = set_up(bf, wl, args.seed, workdir)
            reps.append(time.perf_counter() - t)
        raw_setup_s = import_s + statistics.median(reps)
        speed.sample(REF_WINDOW)
        setup_s = raw_setup_s * speed.factor(2 * REF_WINDOW)
        plain, traced, tracer = measure(bf, wl, insts, paths, args.seconds,
                                        bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    tallies = [plain] if traced is None else [plain, traced]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    refused = sum(t.refused for t in tallies)
    op_s = sum(plain.seconds)
    raw_op_s = sum(plain.raw_seconds)
    print(f"workload={wl.name} seed={args.seed} trace={args.trace}"
          f" attempted={attempted} ok={sum(t.ok for t in tallies)}"
          f" refused={refused} wrong={sum(t.wrong for t in tallies)}"
          f" raised={sum(t.raised for t in tallies)}"
          f" fail_frac={(failed + refused) / attempted:.4f}"
          f" goodput_ops_per_s={plain.ok / op_s:.4f}"
          f" samples={len(plain.seconds)} samples_above_p90={plain.tail()}"
          f" setup_reps={SETUP_REPS}"
          f" host_speed={plain.speed.factor(len(plain.speed.samples)):.4f}"
          f" raw_setup_s={raw_setup_s:.4f}"
          f" raw_ops_per_s={(plain.attempted - plain.failed) / raw_op_s:.4f}"
          f" raw_op_p50_ms={plain.p(50, raw=True) * 1e3:.4f}"
          f" raw_op_p90_ms={plain.p(90, raw=True) * 1e3:.4f}")
    if traced is None:
        values = {
            "setup_s": setup_s,
            "ops_per_s": (plain.attempted - plain.failed) / op_s,
            "op_p50_ms": plain.p(50) * 1e3,
            "op_p90_ms": plain.p(90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END.items()}
    else:
        values = tracing.layer_metrics(tracer.spans, traced.attempted,
                                       sum(traced.raw_seconds), raw_op_s)
        metrics = {name: metric(values[name], unit)
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
