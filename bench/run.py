#!/usr/bin/env python3
"""In-process benchmark of `acso check` and `acso lifts`.

    python3 bench/run.py --workload corpus|search|rings|lifts|all \
        --seed N --seconds S --trace 0|1

Each workload runs in this one process, without threads: the operations
of a round go through `acso.cli.main`, which is what the `acso` command
runs minus interpreter start-up, and every answer is checked.  After one
warm-up round the run repeats whole rounds for S seconds.

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of `tracing.py`, from rounds traced in alternation with untraced ones.
Results and traces are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import families as F
from workloads import WORKLOADS, CheckFailure

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 9
# Every time is scaled by REFERENCE_S / (time of `reference_work` measured
# right before and after it), so it reads in seconds at the speed at which
# the reference takes 1 ms.  The host's speed drifts by up to 40% within
# minutes, and the ratio to the reference cancels most of that drift.
REFERENCE_S = 1e-3
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "latency_s.p50": "s",
         "latency_s.p90": "s", "peak_rss_mb": "MB", "raw_wall_s": "s",
         "raw_cpu_s": "s"}
# p90 needs at least ten samples beyond it
P90_MIN_SAMPLES = 100

# scaled and raw seconds of one round, and scaled seconds of each operation
Round = namedtuple("Round", "wall cpu raw_wall raw_cpu op_walls")


def reference_work() -> int:
    """Fixed pure-Python work of about 1 ms: dicts of tuples, like acso."""
    F.tangent_cp_product([2, 2, 2])
    table: dict = {}
    acc = 0
    for i in range(600):
        key = (i, i + 1, i * 3)
        table[key] = table.get(key, 0) + i * i
        acc += sum(x % 5 for x in key)
    return acc


def reference_time():
    """(wall, CPU) seconds of one `reference_work`."""
    wall, cpu = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - wall, time.process_time() - cpu


def timed(fn):
    """Run fn between two reference samples.

    Returns (result, scaled wall, scaled CPU, raw wall, raw CPU).
    """
    ref0 = reference_time()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        result = fn()
    finally:
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        ref1 = reference_time()
    scale_wall = 2 * REFERENCE_S / (ref0[0] + ref1[0])
    scale_cpu = 2 * REFERENCE_S / (ref0[1] + ref1[1])
    return result, wall * scale_wall, cpu * scale_cpu, wall, cpu


def measure_setup() -> list:
    """Scaled seconds for fresh interpreters to import acso and exit."""
    code = "import sys; sys.path.insert(0, %r); import acso.cli" % str(SRC)
    command = [sys.executable, "-c", code]
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, wall, _, _, _ = timed(lambda: subprocess.run(
            command, check=True, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL))
        samples.append(wall)
    return samples


class Runner:
    """Runs rounds of a workload's operations and checks every answer."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.ops = workload.ops
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}

    def run_op(self, op):
        """(exit code, stdout, error) of one operation, and its times."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            saved = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = out, err
            try:
                return self.cli.main(list(op.argv)), None
            except SystemExit as exc:
                return exc.code, None
            except Exception as exc:  # a traceback is a failed operation
                return None, "raised %s: %s" % (type(exc).__name__, exc)
            finally:
                sys.stdout, sys.stderr = saved

        (code, error), *times = timed(call)
        return code, out.getvalue(), error, times

    def check(self, op, code, out, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                op.check(code, out)
                return
            except CheckFailure as exc:
                error = str(exc)
            except (KeyError, TypeError, ValueError) as exc:
                error = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        self.failed += 1
        if not op.known_fault:
            self.correct = False
        self.failures.setdefault(op.key, {"error": error,
                                          "known_fault": op.known_fault})

    def round(self) -> Round:
        times = []
        for op in self.ops:
            code, out, error, op_times = self.run_op(op)
            self.check(op, code, out, error)
            times.append(op_times)
        sums = [sum(t[i] for t in times) for i in range(4)]
        return Round(*sums, [t[0] for t in times])


def run_rounds(runner, seconds: float, before_round=None, after_round=None):
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if before_round is not None:
            before_round(len(rounds))
        rounds.append(runner.round())
        if after_round is not None:
            after_round(len(rounds) - 1, rounds[-1])
    return rounds


def end_to_end(setup_samples, rounds):
    latencies = sorted(w for r in rounds for w in r.op_walls)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r.wall for r in rounds),
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "latency_s.p50": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {"raw_wall_s": statistics.median(r.raw_wall for r in rounds),
             "raw_cpu_s": statistics.median(r.raw_cpu for r in rounds)}
    if len(latencies) >= P90_MIN_SAMPLES:
        extra["latency_s.p90"] = statistics.quantiles(latencies, n=10)[-1]
    return metrics, extra, len(latencies)


def traced_rounds(runner, seconds: float):
    """Alternate untraced and traced rounds; per-layer medians and spans."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    per_round = []
    spans = []

    def before(i):
        if i % 2:
            tracer.reset()
            tracer.spans = [] if not spans else None
            tracer.install()

    def after(i, result):
        if i % 2:
            tracer.uninstall()
            # layer times get the round's scale to reference seconds
            scale = result.wall / result.raw_wall
            layers = layer_metrics(tracer)
            per_round.append({name: value * scale if name.endswith("_s")
                              else value for name, value in layers.items()})
            if not spans:
                spans.extend(tracer.spans)
            tracer.spans = None

    rounds = run_rounds(runner, seconds, before, after)
    if len(rounds) % 2:  # every traced round gets an untraced partner
        rounds.append(runner.round())
    # counts repeat exactly from round to round; median_low keeps them whole
    metrics = {name: (statistics.median if name.endswith("_s")
                      else statistics.median_low)(r[name] for r in per_round)
               for name in per_round[0]}
    # each traced round against the untraced round just before it
    metrics["trace.overhead_s"] = statistics.median(
        traced.wall - plain.wall for plain, traced in zip(rounds[0::2],
                                                          rounds[1::2]))
    return metrics, tracer.bindings, spans, len(rounds)


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import acso
    import acso.cli as cli

    if Path(acso.__file__).resolve().parent != SRC / "acso":
        print("error: imported acso from %s, not from %s"
              % (acso.__file__, SRC), file=sys.stderr)
        return 2
    setup_samples = measure_setup()
    inputs = OUT / "inputs" / ("%s-seed%d" % (args.workload, args.seed))
    inputs.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ROOT, inputs)
    runner = Runner(cli, workload)
    setup_failures = []
    for check in workload.setup_checks:
        try:
            check()
        except CheckFailure as exc:
            setup_failures.append(str(exc))
        except Exception as exc:  # a traceback from acso fails the check
            setup_failures.append("raised %s: %s" % (type(exc).__name__, exc))
    gc.collect()
    runner.round()  # warm-up, checked but not timed

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setup_samples,
              "operations_per_round": [op.key for op in workload.ops]}
    if args.trace:
        metrics, bindings, spans, nrounds = traced_rounds(runner,
                                                         args.seconds)
        units = {name: _layer_unit(name) for name in metrics}
        record["bindings"] = bindings
        trace_path = OUT / ("trace-%s-seed%d.json" % (args.workload,
                                                      args.seed))
        origin = spans[0][1] if spans else 0.0
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "fields": ["layer", "start_s", "end_s", "parent"],
            "spans": [[s[0], s[1] - origin, s[2] - origin, s[3]]
                      for s in spans]}) + "\n")
    else:
        rounds = run_rounds(runner, args.seconds)
        metrics, extra, nops = end_to_end(setup_samples, rounds)
        nrounds = len(rounds)
        units = dict(UNITS)
        record["extra_metrics"] = extra
        record["latency_samples"] = nops
        record["operation_median_s"] = {
            op.key: statistics.median(r.op_walls[i] for r in rounds)
            for i, op in enumerate(workload.ops)}

    result = {"correct": runner.correct and not setup_failures,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record.update(result, rounds=nrounds, failures=runner.failures,
                  setup_failures=setup_failures)
    OUT.mkdir(exist_ok=True)
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")

    print("workload %s, seed %d: %d rounds, %d operations attempted, "
          "%d failed" % (args.workload, args.seed, nrounds,
                         runner.attempted, runner.failed))
    for key, info in sorted(runner.failures.items()):
        print("  failed %s%s: %s" % (key, " (known fault)"
                                     if info["known_fault"] else "",
                                     info["error"]))
    for message in setup_failures:
        print("  set-up check failed: %s" % message)
    shown = dict(metrics)
    if not args.trace:
        shown.update(record["extra_metrics"])
    for name, value in shown.items():
        print("  %-32s %14.6g %s" % (name, value, units[name]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if child.returncode not in (0, 1) or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "search", "rings", "lifts", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "acso" / "__init__.py").is_file():
        print("error: no acso sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
