"""Benchmark for the puiseux package.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
./src.  A run is one process and one client in a closed loop: the next op
starts only when the previous one has returned.

For one workload it
  1. sets up several times (fresh import of the package, input generation
     from the seed, warm-up ops), each time followed by the reference kernel
     that scales it, and reports the median as setup_s;
  2. runs whole passes over the seeded plan of a fixed number of ops until
     another pass would overrun --seconds (at least one pass), with a
     reference kernel interleaved; every op's time is scaled by the
     kernel's speed around it (see REFERENCE_KERNEL_S);
  3. reads the process's peak RSS, then checks every answer against an
     independent reference, outside the timed region;
  4. with --trace 1, runs one more pass with every layer's public functions
     wrapped in spans and reports the per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A wrong answer prints correct=false and exits 1.  `--workload all`
runs each workload in its own process, one after another, and prints every
metric of each.  `--smoke` shrinks every plan to a few ops.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import wl_extensions  # noqa: E402
import wl_family_search  # noqa: E402
import wl_fg_eval  # noqa: E402
import wl_paper  # noqa: E402

WORKLOADS = {
    "fg-eval": wl_fg_eval,
    "extensions": wl_extensions,
    "family-search": wl_family_search,
    "paper": wl_paper,
}
# Set-up is repeated at least SETUP_MIN_REPEATS times and for at least
# SETUP_MIN_S seconds (at most SETUP_MAX_REPEATS times); setup_s is the median.
SETUP_MIN_REPEATS = 7
SETUP_MAX_REPEATS = 40
SETUP_MIN_S = 3.0
TAIL_BEYOND = 10
# Reported times are scaled to a machine on which reference_kernel() takes
# this long, using kernel runs next to each op and each set-up: the machine
# this benchmark was built on drifted by up to 2x within minutes, and by
# 1.5x within seconds.
REFERENCE_KERNEL_S = 0.025
KERNEL_PERIOD_S = 0.25
TRACE_DIR = HERE / "out"


def fresh_import():
    """Import the package from ./src as if for the first time in this process."""
    for name in [n for n in sys.modules if n == "puiseux" or n.startswith("puiseux.")]:
        del sys.modules[name]
    pkg = importlib.import_module("puiseux")
    importlib.import_module("puiseux.cli")  # not imported by the package itself
    return pkg


def set_up(wl, seed: int, smoke: bool):
    lib = fresh_import()
    rng = random.Random(seed)
    plan = wl.generate(rng, smoke)
    for inp in wl.warmup(rng):
        wl.run(lib, inp)
    return lib, plan


def reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work, with the collector off.

    It mixes Fraction arithmetic with shifts of megabit integers, the two
    kinds of work the library does, and uses no library code, so its time
    tracks only how fast the machine is running at that moment.  Its
    integers stay small (0.5 MB), because the kernel runs in the measured
    process and must not set its peak RSS.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 2500):
            total += Fraction(i % 7 + 1, i % 97 + 1)
        mask = (1 << 4_000_000) - 1
        bits = mask // 7
        for step in range(1, 40):
            bits |= (bits << step) & mask
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class Passes:
    raw: list[list[float]]         # per op, its seconds on each pass
    segment: list[list[int]]       # per op and pass, the index of the kernel run just before it
    outputs: list                  # first-pass answer (or exception) per op
    errors: list[str]              # ops that raised
    unstable: list[str]            # ops whose answer changed between passes
    kernel_s: list[float]          # reference kernel times, interleaved with the ops
    passes: int = 0

    def factor(self, segment: int) -> float:
        """How much slower than the reference machine the ops between kernel
        runs `segment` and `segment + 1` ran."""
        return (self.kernel_s[segment] + self.kernel_s[segment + 1]) / (2 * REFERENCE_KERNEL_S)

    @property
    def latencies(self) -> list[list[float]]:
        """Per op, its seconds on each pass, scaled to the reference machine."""
        return [[t / self.factor(j) for t, j in zip(times, segs)]
                for times, segs in zip(self.raw, self.segment)]

    @property
    def op_s(self) -> float:
        return sum(map(sum, self.raw))

    @property
    def scaled_s(self) -> float:
        return sum(map(sum, self.latencies))

    @property
    def slowdown(self) -> float:
        return self.op_s / self.scaled_s


def timed_passes(run, lib, plan, seconds: float, max_passes: int | None = None) -> Passes:
    """Whole passes over the plan until another would overrun `seconds`.

    The reference kernel runs between ops every KERNEL_PERIOD_S, and once
    more at the end; each op is scaled by the mean of the two kernel runs
    around it.
    """
    res = Passes([[] for _ in plan], [[] for _ in plan], [None] * len(plan), [], [],
                 [reference_kernel()])
    clock = time.perf_counter
    start = last_kernel = clock()
    while True:
        for i, inp in enumerate(plan):
            t0 = clock()
            try:
                out = run(lib, inp)
            except Exception as exc:  # an op that raises counts as failed, never as skipped
                out = exc
                res.errors.append(f"{type(exc).__name__}: {exc}")
            t1 = clock()
            res.raw[i].append(t1 - t0)
            res.segment[i].append(len(res.kernel_s) - 1)
            if res.passes == 0:
                res.outputs[i] = out
            elif type(out) is not type(res.outputs[i]) or (
                    not isinstance(out, Exception) and out != res.outputs[i]):
                res.unstable.append(f"op {i} answered differently on pass {res.passes + 1}")
            if t1 - last_kernel > KERNEL_PERIOD_S:
                res.kernel_s.append(reference_kernel())
                last_kernel = clock()
        res.passes += 1
        elapsed = clock() - start
        if res.passes == max_passes or elapsed * (res.passes + 1) / res.passes > seconds:
            res.kernel_s.append(reference_kernel())
            return res


def latency_stats(latencies: list[list[float]]) -> dict:
    """p50 and tail over each op's median latency across passes (fixed count), in ms."""
    per_op = sorted(statistics.median(samples) for samples in latencies)
    n = len(per_op)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "p50_ms": statistics.median(per_op) * 1e3,
        "tail_ms": per_op[n - 1 - beyond] * 1e3,
        "tail_pct": 100.0 * (n - beyond) / n,
        "samples": n,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    if not (ROOT / "src" / "puiseux" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[name]

    setup_times = []   # each scaled by the mean of the kernel runs before and after it
    start = time.perf_counter()
    kernel_before = reference_kernel()
    while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S):
        lib = plan = None
        gc.collect()  # free the previous set-up's modules and caches, so peak RSS is one set-up's
        t0 = time.perf_counter()
        lib, plan = set_up(wl, seed, smoke)
        elapsed = time.perf_counter() - t0
        kernel_after = reference_kernel()
        setup_times.append(elapsed * 2 * REFERENCE_KERNEL_S / (kernel_before + kernel_after))
        kernel_before = kernel_after

    loop = timed_passes(wl.run, lib, plan, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(plan) * loop.passes
    failed = len(loop.errors)
    slowdown = loop.slowdown
    ops_per_s = attempted / loop.scaled_s
    lat = latency_stats(loop.latencies)

    wrong = list(loop.unstable)
    for inp, out in zip(plan, loop.outputs):
        if not isinstance(out, Exception):
            problem = wl.check(inp, out)
            if problem:
                wrong.append(problem)

    print(f"workload {name}: seed {seed}, {len(plan)} ops per pass, {loop.passes} passes "
          f"in {loop.op_s:.2f} s, closed loop, 1 client")
    print(f"  reference kernel {statistics.median(loop.kernel_s) * 1e3:.1f} ms median of "
          f"{len(loop.kernel_s)} runs; ops ran x{slowdown:.3f} the time they would take where it "
          f"takes {REFERENCE_KERNEL_S * 1e3:.0f} ms; unscaled: {attempted / loop.op_s:.4g} ops/s")
    print(f"  latency tail is p{lat['tail_pct']:.1f} over {lat['samples']} per-op medians; "
          f"setup_s is the median of {len(setup_times)} set-ups")
    print(f"  fail_share {failed / attempted:.4f} ({failed} of {attempted} ops raised)")
    for e in sorted(set(loop.errors))[:5]:
        print(f"  failed op: {e[:300]}")
    for problem in wrong[:5]:
        print(f"  WRONG ANSWER: {problem}", file=sys.stderr)

    if trace:
        tr = tracer.Tracer(lib)
        tr.install()
        try:
            traced = timed_passes(tr.op_runner(wl.run), lib, plan, 0, max_passes=1)
        finally:
            tr.uninstall()
        if any(not isinstance(a, Exception) and a != b for a, b in zip(loop.outputs, traced.outputs)):
            wrong.append("an answer changed under tracing")
        tr.dump(TRACE_DIR / f"trace-{name}-seed{seed}.tsv.gz")
        layer = tracer.layer_metrics(tr, traced.op_s, traced.slowdown,
                                     len(plan) / traced.scaled_s, ops_per_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        shares = ", ".join(f"{k.split('.')[0]} {v:.1%}" for k, (v, _) in layer.items()
                           if k.endswith(".self_share"))
        print(f"  self-time shares: {shares}")
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": lat["tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if wrong else 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name}: exit code {proc.returncode}")
            status = 1
        if not lines or not lines[-1].startswith("{"):
            print("\n".join(lines))
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"  fail_share: {result['failed'] / result['attempted']:.4f}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric}: {entry['value']:.6g} {entry['unit']}")
        print(json.dumps({"workload": name, **result}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few ops per workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
