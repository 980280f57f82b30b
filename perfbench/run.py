"""nvsense benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload select-spins --seed 1 \
        --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.
--trace 0 runs ops closed-loop, one at a time, for --seconds and
reports the end-to-end metrics of BENCHMARK.json, with times calibrated
to a reference machine speed (see calibrate.py).  --trace 1 runs the
workload's fixed first ops once with every layer wrapped (see tracer.py)
and once without, and reports the per-layer metrics; it also writes the
spans and per-op work counters under perfbench/out/.  The last line of
stdout is the result object; see README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread: the package's matrices are 2x2 to 5x5, so BLAS
# threads only spin, and on a 2-core machine their spinning made single
# ESEEM ops up to 40x slower at random.  Set before numpy is imported;
# the set-up subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from calibrate import REF_IMPORT_CODE, REF_IMPORT_S, Calibration  # noqa: E402
from tracer import (Tracer, layer_metrics, op_counters,  # noqa: E402
                    write_counters)

SETUP_REPEATS = 5
SETUP_CODE = "import nvsense; nvsense.load_hyperfine_table()"
# a statistical miss rate this far above the gate's 5-in-50 allowance
# (binomial tail below this) marks the run incorrect
GATE_MISS_RATE = 0.10
MISS_P_VALUE = 1e-3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_nvsense():
    """Import nvsense from ./src and nowhere else, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "nvsense", "__init__.py")):
        print(f"error: no nvsense package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    nv = importlib.import_module("nvsense")
    if os.path.dirname(os.path.abspath(nv.__file__)) != os.path.join(
            SRC, "nvsense"):
        print(f"error: nvsense imported from {nv.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    for sub in ("cli", "core", "eseem", "fitting", "hamiltonian", "io",
                "presets", "synth"):
        importlib.import_module("nvsense." + sub)
    return nv


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def setup_seconds() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the package.

    Returns (calibrated, raw) medians.  Each set-up run sits between two
    runs of the reference import, whose mean calibrates it.
    """
    env = dict(os.environ, PYTHONPATH=SRC)

    def interpreter(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    ref = [interpreter(REF_IMPORT_CODE)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(interpreter(SETUP_CODE))
        ref.append(interpreter(REF_IMPORT_CODE))
        scaled.append(raw[-1] * REF_IMPORT_S / (0.5 * (ref[-2] + ref[-1])))
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Latency and verdict of each op of one pass.

    A verdict is "ok", "miss", "raised ..." (the op threw) or
    "fail: ..." (the check rejected the output).
    """

    def __init__(self):
        self.start: list[float] = []
        self.latency: list[float] = []
        self.verdicts: list[str] = []

    def record(self, start: float, seconds: float, verdict: str) -> None:
        self.start.append(start)
        self.latency.append(seconds)
        self.verdicts.append(verdict)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def ok(self) -> int:
        return self.verdicts.count("ok")

    @property
    def missed(self) -> int:
        return self.verdicts.count("miss")

    @property
    def raised(self) -> int:
        return sum(v.startswith("raised") for v in self.verdicts)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok - self.missed

    def reasons(self, limit: int = 5) -> list[str]:
        return [v for v in self.verdicts if v not in ("ok", "miss")][:limit]


def run_op(wl, i: int, tally: Tally, tracer=None) -> None:
    inp = wl.make_input(i)
    if tracer is not None:
        tracer.op_id = i
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # a raising op is counted, not fatal
        tally.record(t0, time.perf_counter() - t0,
                     f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(limit=3, file=sys.stderr)
        return
    seconds = time.perf_counter() - t0
    tally.record(t0, seconds, wl.check(inp, out))


def misses_implausible(tally: Tally) -> bool:
    """Binomial tail P(X >= missed) under the gate's miss rate is tiny."""
    n, k = tally.attempted, tally.missed
    if k == 0:
        return False
    log_p, log_q = math.log(GATE_MISS_RATE), math.log1p(-GATE_MISS_RATE)
    tail = sum(math.exp(math.lgamma(n + 1) - math.lgamma(j + 1)
                        - math.lgamma(n - j + 1) + j * log_p
                        + (n - j) * log_q) for j in range(k, n + 1))
    return tail < MISS_P_VALUE


def tail_percentile(latency: list[float], wanted: float):
    """Highest ladder percentile <= wanted with ten samples beyond it.

    Falls back to the lowest ladder step, the median, when no step has.
    """
    ordered = sorted(latency)
    for pct in [p for p in TAIL_LADDER if p <= wanted] + [TAIL_LADDER[-1]]:
        value = _percentile(ordered, pct)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            return pct, value, beyond


def _percentile(ordered: list[float], pct: float) -> float:
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_metrics(latency: list[float], tail_pct: float) -> dict:
    pct, tail, beyond = tail_percentile(latency, tail_pct)
    return {"ops_per_s": len(latency) / sum(latency),
            "op_p50_ms": 1e3 * statistics.median(latency),
            "op_tail_ms": 1e3 * tail,
            "tail": f"p{pct:g} of {len(latency)} ops ({beyond} beyond it)"}


def end_to_end(wl, seconds: float):
    setup, setup_raw = setup_seconds()
    cal = Calibration(wl.kernel)
    tally = Tally()
    cal.sample()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        run_op(wl, i, tally)
        i += 1
        if cal.due():
            cal.sample()
    cal.sample()
    scaled = [t * cal.factor(s, s + t)
              for s, t in zip(tally.start, tally.latency)]
    ops, raw = op_metrics(scaled, wl.tail_pct), op_metrics(tally.latency,
                                                          wl.tail_pct)
    metrics = {
        "setup_s": setup,
        "ops_per_s": ops["ops_per_s"],
        "op_p50_ms": ops["op_p50_ms"],
        "op_tail_ms": ops["op_tail_ms"],
        "ops_ok_frac": tally.ok / tally.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kernel = statistics.median(cal.samples)
    notes = [f"op_tail_ms is {ops['tail']}",
             f"setup_s is the median of {SETUP_REPEATS} fresh interpreters",
             f"times are at reference speed: reference kernel "
             f"{'+'.join(cal.parts)} {1e3 * kernel:.3f} ms here (median of "
             f"{len(cal.samples)} samples), {1e3 * cal.reference:.3f} ms at "
             f"reference",
             f"raw: setup_s {setup_raw:.4g}, ops_per_s "
             f"{raw['ops_per_s']:.4g}, op_p50_ms {raw['op_p50_ms']:.4g}, "
             f"op_tail_ms {raw['op_tail_ms']:.4g}"]
    return tally, metrics, notes


def traced(nv, wl, seed: int):
    tracer = Tracer()
    traced_tally, plain_tally = Tally(), Tally()

    def run_traced(i):
        tracer.install(nv)
        try:
            run_op(wl, i, traced_tally, tracer)
        finally:
            tracer.remove()

    # each op runs traced and untraced back to back, alternating which
    # goes first, so drift in machine speed cancels out of the overhead
    for i in range(wl.trace_ops):
        if i % 2 == 0:
            run_traced(i)
            run_op(wl, i, plain_tally)
        else:
            run_op(wl, i, plain_tally)
            run_traced(i)
    metrics = layer_metrics(tracer)
    metrics["bench.trace_overhead_frac"] = (
        sum(traced_tally.latency) / sum(plain_tally.latency) - 1.0)
    metrics["bench.traced_ops"] = float(traced_tally.attempted)
    metrics["bench.ops_raised"] = float(traced_tally.raised)
    metrics["bench.ops_missed"] = float(traced_tally.missed)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{seed}-{os.getpid()}")
    tracer.save(stem + "-spans.npz")
    write_counters(stem + "-counters.json",
                   {"workload": wl.name, "seed": seed,
                    "ops": wl.trace_ops}, op_counters(tracer))
    notes = [f"{wl.trace_ops} ops traced, each also run untraced",
             "spans and counters written to "
             + os.path.relpath(stem, ROOT) + "-*"]
    # the two passes see the same inputs, so they must agree op by op
    result = Tally()
    for start, seconds, a, b in zip(traced_tally.start, traced_tally.latency,
                                    traced_tally.verdicts,
                                    plain_tally.verdicts):
        result.record(start, seconds, a if a == b else
                      f"fail: traced verdict {a!r}, untraced {b!r}")
    return result, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    nv = import_nvsense()
    declared = declared_metrics()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.make(args.workload, nv, args.seed, workdir)
        if args.trace:
            tally, values, notes = traced(nv, wl, args.seed)
            units = declared["per_layer"]
        else:
            tally, values, notes = end_to_end(wl, args.seconds)
            units = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        print(f"error: measured metrics {sorted(values)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 3
    correct = tally.failed == 0 and not misses_implausible(tally)
    print(f"workload {wl.name} seed {args.seed}: {tally.attempted} ops, "
          f"{tally.ok} ok, {tally.missed} missed, {tally.raised} raised, "
          f"{tally.failed - tally.raised} rejected by the checks")
    for reason in tally.reasons():
        print(f"  {reason}")
    for note in notes:
        print(f"  {note}")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
