"""Benchmark runner: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src. One
caller in one single-threaded process issues each operation when the
previous one returns. A pass runs the workload's whole input list; passes
repeat until --seconds have gone. Every answer of the first pass is checked
by a second route, and later passes must repeat it exactly.

The last stdout line is the result JSON. The line before it is the run's
context (interpreter, nproc, seed, source line counts, failures), and any
failure is also printed on its own line with its seed and input.
--trace 1 alternates untraced and traced passes and reports per-layer
numbers per pass instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads
from layers import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 11
MIN_PASSES = 3
QUIET_PERCENTILE = 25
TAIL_PERCENTILE = 90
HARD_LIMIT_S = 110  # no op starts later than this into the run, so it ends well within 180 s


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException so library `except Exception` cannot swallow it."""


def _alarm(signum, frame):
    raise OverBudget


def timed_call(fn, budget_s):
    """(result, seconds, error); error is a string when fn raised or overran its budget."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except OverBudget:
        result, error = None, f"over budget {budget_s:g} s"
    except Exception as err:  # any library failure is a counted, listed failure
        result, error = None, f"{type(err).__name__}: {err}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, elapsed, error


def import_fresh():
    """Import torica from ./src as a new process would (bytecode cache allowed)."""
    for name in [m for m in sys.modules if m == "torica" or m.startswith("torica.")]:
        del sys.modules[name]
    torica = importlib.import_module("torica")
    importlib.import_module("torica.cli")
    if Path(torica.__file__).resolve().parent != SRC / "torica":
        raise ImportError(f"torica imported from {torica.__file__}, not from {SRC}")
    return torica


def reference_loop():
    """A fixed piece of pure-Python arithmetic, about 1.5 ms on a 2.1 GHz Xeon; it never changes."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def quiet(samples, reference):
    """Each op's lower-quartile latency over its repeats, in reference loops.

    A sample is (latency, i): the reference loop was timed as reference[i]
    just before the op and reference[i + 1] just after it, and the latency
    is divided by their mean. Other tenants of a shared machine slow a core
    by 25-40% for seconds to minutes, and that slows the reference loop and
    the op alike; the lower quartile then drops repeats that a burst hit
    harder still.
    """
    return [
        percentile([t * 2 / (reference[i] + reference[i + 1]) for t, i in repeats], QUIET_PERCENTILE)
        for repeats in samples
        if repeats
    ]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def source_lines():
    return {
        p.stem: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "torica").glob("*.py"))
    }


class Run:
    def __init__(self, workload, seed, seconds, ops, torica):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ops = ops
        self.torica = torica
        self.answers = [None] * len(ops)
        self.attempted = 0
        self.failures = []
        self.spans_file = None
        self.reference = []
        self.deadline = time.perf_counter() + HARD_LIMIT_S

    def fail(self, pass_no, index, op, error):
        self.failures.append(
            {"workload": self.workload.name, "seed": self.seed, "pass": pass_no,
             "op": index, "input": op, "error": error}
        )

    def one_pass(self, pass_no, samples, tracer=None):
        """Run every op once, appending (latency, reference index) to samples[op]; returns the pass time.

        The pass time is the sum of the raw op latencies, so reference
        loops, answer checks and bookkeeping between ops are not in it.
        """
        wl, torica = self.workload, self.torica
        total = 0.0
        for index, op in enumerate(self.ops):
            if time.perf_counter() > self.deadline:
                break
            self.time_reference()
            if tracer is not None:
                tracer.begin_op(index)
            answer, elapsed, error = timed_call(lambda: wl.run(torica, op), wl.budget_s)
            self.attempted += 1
            samples[index].append((elapsed, len(self.reference) - 1))
            total += elapsed
            if error is None:
                answer = json.loads(json.dumps(answer))  # canonical plain data
                if self.answers[index] is None:
                    try:
                        error = wl.check(torica, op, answer)
                    except Exception as err:
                        error = f"check raised {type(err).__name__}: {err}"
                    if error is None:
                        self.answers[index] = answer
                elif answer != self.answers[index]:
                    error = "answer differs from the first pass"
            if error is not None:
                self.fail(pass_no, index, op, error)
        return total

    def time_reference(self):
        start = time.perf_counter()
        reference_loop()
        self.reference.append(time.perf_counter() - start)

    def loop(self, tracer=None):
        """Passes until --seconds have gone; with a tracer, every second pass is traced.

        Returns per-op latency lists for untraced and traced passes, the
        pass times of each, and the per-layer numbers of each traced pass.
        """
        plain = [[] for _ in self.ops]
        traced = [[] for _ in self.ops]
        plain_s, traced_s, layer = [], [], []
        begin = time.perf_counter()
        while time.perf_counter() < self.deadline:
            spent = time.perf_counter() - begin
            done = plain_s + traced_s
            # Start a pass only if it should end by --seconds, so that a run
            # lasts its stated time rather than that plus most of a pass.
            if len(done) >= MIN_PASSES and spent + statistics.median(done) > self.seconds:
                break
            if tracer is not None and len(done) % 2 == 1:
                tracer.reset()
                tracer.keep_spans = not traced_s
                tracer.install()
                try:
                    traced_s.append(self.one_pass(len(done), traced, tracer))
                finally:
                    tracer.uninstall()
                layer.append(tracer.pass_stats())
                if len(traced_s) == 1:
                    self.write_spans(tracer)
            else:
                plain_s.append(self.one_pass(len(done), plain))
        self.time_reference()  # the one after the last op
        return plain, traced, plain_s, traced_s, layer

    def write_spans(self, tracer):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{self.workload.name}-{self.seed}.json"
        path.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
        self.spans_file = str(path.relative_to(ROOT))


def probe_max_k(run, torica):
    """Largest k with a correct 2^k inside the per-k budget, from the end of the ladder."""
    wl = run.workload
    best = max(wl.ladder)
    for k in range(best + 1, wl.probe_top + 1):
        if time.perf_counter() > run.deadline:
            break
        answer, elapsed, error = timed_call(
            lambda: torica.steinberg_multiplicity(k, 0), wl.probe_budget_s
        )
        run.attempted += 1
        if error is not None and error.startswith("over budget"):
            break  # the stopping condition, not a failure
        if error is None and answer != 2 ** k:
            error = f"multiplicity {answer} != 2^{k}"
        if error is not None:
            run.fail("probe", k, {"k": k}, error)
            break
        best = k
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "torica" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'torica'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    wl = workloads.WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        torica = import_fresh()
        setups.append(time.perf_counter() - start)
    ops = workloads.make_inputs(wl, args.seed)

    run = Run(wl, args.seed, args.seconds, ops, torica)
    tracer = Tracer(torica) if args.trace else None
    plain, traced, plain_s, traced_s, layer = run.loop(tracer)
    max_k = probe_max_k(run, torica) if wl.name == "product_law" and not args.trace else None

    best = quiet(plain, run.reference)
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(ops),
        "untraced_passes": len(plain_s),
        "untraced_pass_s": [round(t, 4) for t in plain_s],
        "untraced_pass_median_s": statistics.median(plain_s),
        "reference_median_s": statistics.median(run.reference),
        "quiet_percentile": QUIET_PERCENTILE,
        # Per-op figures vary 10-20% run to run even in ref units, too much
        # for a bound of 0.25, so they are recorded here and not gated.
        "op_p50_ref": percentile(best, 50),
        "op_tail_ref": percentile(best, TAIL_PERCENTILE),
        "op_tail_percentile": TAIL_PERCENTILE,
        "ops_beyond_tail": sum(1 for t in best if t > percentile(best, TAIL_PERCENTILE)),
        "setup_repeats_s": [round(t, 4) for t in setups],
        "fail_frac": len(run.failures) / run.attempted,
        "source_lines": source_lines(),
    }
    if max_k is not None:
        context["max_k"] = max_k
        context["probe_budget_s"] = wl.probe_budget_s

    if args.trace:
        counted = (".calls", ".fresh")
        values = {"trace.overhead": sum(quiet(traced, run.reference)) / sum(best) - 1}
        for name in set().union(*layer):
            per_pass = [stats.get(name, 0) for stats in layer]
            values[name] = per_pass[0] if name.endswith(counted) else statistics.median(per_pass)
        context["counts_repeat"] = all(
            {k: v for k, v in stats.items() if k.endswith(counted)}
            == {k: v for k, v in layer[0].items() if k.endswith(counted)}
            for stats in layer
        )
        context["traced_pass_s"] = [round(t, 4) for t in traced_s]
        context["spans_file"] = run.spans_file
        context["layers_self_s"] = {m: values[f"{m}.self_s"] for m in MODULES}
        declared = spec["per_layer"]
    else:
        values = {
            "wall_ref": sum(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        declared = spec["end_to_end"]

    for failure in run.failures:
        print(json.dumps({"failure": failure}))
    print(json.dumps({"context": context}))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
