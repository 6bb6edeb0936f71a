"""The loopgrowth benchmark.

Run from the root of a loopgrowth checkout:

    python3 loopbench/run.py --workload product-poles --seed 1 --seconds 20 --trace 0
    python3 loopbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One single-threaded process drives the workload's request list through
`loopgrowth.cli.run(argv, out)` as a closed loop with one client: the next
request starts when the previous one returns. Whole passes over the list
repeat until --seconds have passed and at least MIN_PASSES were made, so
every run measures the same mix. Each call has a DEADLINE_S wall-clock
limit, and a request that misses it is not called again in the run.

The latency quantiles are taken over all calls of all passes, and the
throughput over the summed wall time of those calls. Later passes replay the same
argv, so the first (cold) pass's figures are printed as well, to tell a
cache from a faster kernel. The set-up time is the median of fresh
interpreter runs spread over the run. Every reported time is scaled to a
reference host speed, measured next to it with a fixed big-integer kernel
that does not touch loopgrowth (`HostSpeed`); the unscaled figures are
printed as well. After the timed loop, every distinct
report is checked against an independent computation (checks.py), and
every repeated call must return the same bytes as the first.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports per-layer metrics from
spans recorded around the library's public functions (spans.py), plus the
tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
MIN_PASSES = 4
SETUP_RUNS = 20
IMPORT_RUNS = 5
OUT_DIR = ROOT / ".bench_out"
REFERENCE_MS = 20.0
"""Time of `reference()` in milliseconds at the reference host speed, about
its median on the baseline machine (loopbench/README.md)."""
PROBE_EVERY_S = 0.25


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a run() call that outlives its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def call(run, argv):
    """One run() call: (outcome, seconds, text). The outcome is the exit code,
    "deadline", or the name of the exception that escaped run()."""
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, workloads.DEADLINE_S)
    start = time.perf_counter()
    try:
        outcome = run(argv, out)
    except DeadlineExceeded:
        outcome = "deadline"
    except (Exception, SystemExit) as e:  # a crash is a measured outcome here
        outcome = type(e).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome, time.perf_counter() - start, out.getvalue()


def reference() -> int:
    """A fixed big-integer kernel, independent of loopgrowth: 1,600 products
    of 2,000-bit numbers reduced modulo a 1,500-bit one."""
    rng = random.Random(2000)
    xs = [rng.getrandbits(2000) for _ in range(40)]
    modulus = rng.getrandbits(1500) | 1
    total = 0
    for x in xs:
        for y in xs:
            total += x * y % modulus
    return total


class HostSpeed:
    """Timings of reference() taken through a run, to scale every measured
    time to the reference host speed.

    A shared host runs in slower and faster spells, from seconds to minutes
    long and up to 1.6x apart, that slow loopgrowth and the big-integer
    kernel much alike. A time multiplied by the scale measured around it reads as
    it would at the reference speed, so the spells cancel out, while a change
    to loopgrowth does not (the kernel does not call it)."""

    def __init__(self):
        self.probes = []  # (perf_counter at the start, seconds)

    def probe(self):
        start = time.perf_counter()
        reference()
        self.probes.append((start, time.perf_counter() - start))

    def probe_if_due(self, _=None):
        """A Pass `before` hook: probe when PROBE_EVERY_S have passed since the last probe."""
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, t: float) -> float:
        """REFERENCE_MS over the median of the two probes before and the two
        after time t."""
        i = bisect.bisect(self.probes, (t,))
        near = self.probes[max(i - 2, 0):i + 2]
        return REFERENCE_MS / (1000 * statistics.median(s for _, s in near))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Outcomes of one pass over the request list.

    A request that missed its deadline is not called again in the run (it
    would only stall every later pass); its later calls count as missed."""

    def __init__(self, run, reqs, stuck: set, before=None):
        self.outcomes, self.seconds, self.digests, self.texts = [], [], [], []
        self.starts, self.skipped = [], set(stuck)
        start = time.perf_counter()
        for i, req in enumerate(reqs):
            if before:
                before(i)
            self.starts.append(time.perf_counter())
            if i in stuck:
                outcome, dt, text = "deadline", workloads.DEADLINE_S, ""
            else:
                outcome, dt, text = call(run, req.argv)
            self.outcomes.append(outcome)
            self.seconds.append(dt)
            self.digests.append(_digest(text) if isinstance(outcome, int) else None)
            self.texts.append(text)
        self.wall = time.perf_counter() - start
        stuck.update(i for i, outcome in enumerate(self.outcomes) if outcome == "deadline")

    def drop_texts(self):
        self.texts = None


def fresh_processes(code, runs):
    """Outputs and wall times of fresh interpreters running `code`, with the
    checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs, times = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(code)} exited with {proc.returncode}: {proc.stderr}")
        outputs.append(proc.stdout)
    return outputs, times


def setup_seconds(speed: HostSpeed):
    """Start and wall time of one fresh `python -m loopgrowth.cli parse S2`
    process, probing the host speed just before it."""
    speed.probe()
    start = time.perf_counter()
    (output,), (seconds,) = fresh_processes(["-m", "loopgrowth.cli", "parse", "S2"], 1)
    if json.loads(output)["result"]["canonical"] != "S2":
        raise RuntimeError("parse S2 gave a wrong report")
    return start, seconds


def import_seconds():
    code = "import time; t = time.perf_counter(); import loopgrowth.cli; print(time.perf_counter() - t)"
    outputs, _ = fresh_processes(["-c", code], IMPORT_RUNS)
    return statistics.median(float(o) for o in outputs)


class Verdicts:
    """Checks each distinct request once and classifies every call."""

    def __init__(self, reqs, first: Pass, run):
        from checks import Checker

        def rerun(argv):
            outcome, _, text = call(run, argv)
            return outcome, text

        checker = Checker(ROOT, rerun)
        self.reqs, self.first = reqs, first
        self.problems = {}
        for i, req in enumerate(reqs):
            outcome = first.outcomes[i]
            if isinstance(outcome, int):
                found = checker.check(req, outcome, first.texts[i])
            elif outcome == req.expect.get("defect"):
                found = []
            elif outcome == "deadline":
                found = []  # slow, not wrong: counted as failed below
            else:
                found = [f"uncaught {outcome}"]
            if found:
                self.problems[i] = found

    def failed(self, i, p: Pass) -> bool:
        outcome = p.outcomes[i]
        return (not isinstance(outcome, int) or i in self.problems
                or p.digests[i] != self.first.digests[i])

    def wrong(self, passes) -> list:
        out = [f"{' '.join(self.reqs[i].argv)[:120]}: {msgs[0]}" for i, msgs in self.problems.items()]
        for p in passes:
            for i, d in enumerate(p.digests):
                if d is not None and self.first.digests[i] is not None and d != self.first.digests[i]:
                    out.append(f"{' '.join(self.reqs[i].argv)[:120]}: report bytes changed between passes")
        return out


def measure(reqs, seconds, run, speed: HostSpeed):
    """Whole passes until `seconds` have passed and at least MIN_PASSES were
    made. The set-up processes are spread evenly over the same span, between
    passes, and take no part in the pass times. The host speed is probed
    between calls, outside their timing."""
    passes, stuck, setups = [], set(), []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(setups) < SETUP_RUNS and elapsed >= len(setups) * seconds / SETUP_RUNS:
            setups.append(setup_seconds(speed))
        if elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
        passes.append(Pass(run, reqs, stuck, before=speed.probe_if_due))
        if len(passes) > 1:
            passes[-1].drop_texts()
    while len(setups) < SETUP_RUNS:
        setups.append(setup_seconds(speed))
    speed.probe()
    return passes, setups


def end_to_end(args, reqs, run):
    speed = HostSpeed()
    passes, setups = measure(reqs, args.seconds, run, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = Verdicts(reqs, passes[0], run)

    def completed(p):
        return sum(not verdicts.failed(i, p) for i in range(len(reqs)))

    def latencies(p, scaled=True):
        """Call times in ms; a failed call counts as missing any latency limit."""
        out = []
        for i, (t, dt) in enumerate(zip(p.starts, p.seconds)):
            ms = 1000 * dt * (speed.scale(t) if scaled else 1.0)
            out.append(max(ms, 1000 * workloads.DEADLINE_S) if verdicts.failed(i, p) else ms)
        return out

    def busy(p, scaled=True):
        """Seconds spent in run() calls, leaving out the requests skipped as stuck."""
        return sum(dt * (speed.scale(t) if scaled else 1.0)
                   for i, (t, dt) in enumerate(zip(p.starts, p.seconds)) if i not in p.skipped)

    attempted = len(passes) * len(reqs)
    failed = attempted - sum(map(completed, passes))
    calls = [ms for p in passes for ms in latencies(p)]
    raw_calls = [ms for p in passes for ms in latencies(p, scaled=False)]
    cold = passes[0]
    metrics = {
        "reports_per_s": (attempted - failed) / sum(map(busy, passes)),
        "latency_p50_ms": statistics.median(calls),
        "latency_p90_ms": statistics.quantiles(calls, n=10)[-1],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(seconds * speed.scale(t) for t, seconds in setups),
    }
    scales = [REFERENCE_MS / (1000 * seconds) for _, seconds in speed.probes]
    notes = [
        f"passes {len(passes)} of {len(reqs)} requests, {attempted} calls in "
        f"{sum(busy(p, scaled=False) for p in passes):.2f} s",
        f"latency quantiles over all {len(calls)} calls, {sum(c > metrics['latency_p90_ms'] for c in calls)}"
        " of them beyond p90",
        f"setup_s median of {SETUP_RUNS} fresh processes spread over the run",
        f"host scale {min(scales):.4f} to {max(scales):.4f} over {len(scales)} probes; unscaled"
        f" reports_per_s {(attempted - failed) / sum(busy(p, scaled=False) for p in passes):.6g} 1/s,"
        f" latency_p50_ms {statistics.median(raw_calls):.6g} ms,"
        f" latency_p90_ms {statistics.quantiles(raw_calls, n=10)[-1]:.6g} ms,"
        f" setup_s {statistics.median(seconds for _, seconds in setups):.6g} s",
        f"first pass reports_per_s {completed(cold) / busy(cold):.6g} 1/s, "
        f"latency_p50_ms {statistics.median(latencies(cold)):.6g} ms",
        f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} calls)",
        f"reports_digest {_digest(''.join(d or '-' for d in passes[0].digests))}",
    ]
    return verdicts.wrong(passes), attempted, failed, metrics, notes


def per_layer(args, reqs, run):
    from spans import Tracer

    tracer = Tracer()
    traced_run = tracer.wrap("cli.run", run, lambda a, k, r: {"bytes": len(a[1].getvalue())})
    # separate stuck sets, so the traced run also records a hang's spans once
    plain, traced, plain_stuck, traced_stuck = [], [], set(), set()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not traced:
        plain.append(Pass(run, reqs, plain_stuck))
        tracer.install()
        try:
            traced.append(Pass(traced_run, reqs, traced_stuck,
                               before=lambda i, n=len(traced): tracer.begin(f"{n}:{i}")))
        finally:
            tracer.uninstall()
        for p in plain[1:] + traced:
            p.drop_texts()
    verdicts = Verdicts(reqs, plain[0], run)
    everything = plain + traced
    attempted = sum(len(p.outcomes) for p in everything)
    failed = sum(verdicts.failed(i, p) for p in everything for i in range(len(reqs)))

    layers = tracer.layer_metrics(len(traced))
    for m in args.spec["per_layer"]:
        if m["name"].startswith("cli.errors."):
            layers[m["name"]] = 0
    layers["cli.uncaught"] = layers["cli.deadline_missed"] = 0
    for p in traced:
        for outcome in p.outcomes:
            if outcome == "deadline":
                layers["cli.deadline_missed"] += 1
            elif not isinstance(outcome, int):
                layers["cli.uncaught"] += 1
    for i, outcome in enumerate(plain[0].outcomes):
        if isinstance(outcome, int) and outcome != 0 and not reqs[i].expect.get("csv"):
            kind = json.loads(plain[0].texts[i])["error"]["kind"]
            layers[f"cli.errors.{kind}"] += 1
    layers["cli.uncaught"] /= len(traced)
    layers["cli.deadline_missed"] /= len(traced)
    layers["cli.import_s"] = import_seconds()
    layers["tracing_overhead_frac"] = min(p.wall for p in traced) / min(p.wall for p in plain) - 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    notes = [f"{len(plain)} untraced and {len(traced)} traced passes; per-layer figures are per pass",
             f"spans written to {OUT_DIR.name}/spans-{args.workload}-seed{args.seed}.jsonl"]
    return verdicts.wrong(everything), attempted, failed, layers, notes


def run_all(args):
    """Every workload in its own process (peak RSS is per process), one table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        rows.append((name, result))
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    metrics = list(rows[0][1]["metrics"])
    print(f"{'metric':<50}" + "".join(f"{name:>16}" for name, _ in rows))
    for metric in metrics:
        unit = rows[0][1]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':<50}" + "".join(f"{r['metrics'][metric]['value']:>16.6g}" for _, r in rows))
    print(f"{'failed_frac':<50}" + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for _, r in rows))
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "loopgrowth" / "cli.py").is_file():
        print(f"error: no src/loopgrowth under {ROOT}; run from a loopgrowth checkout", file=sys.stderr)
        return 2
    for module in ("sympy", "jsonschema"):
        if importlib.util.find_spec(module) is None:
            print(f"error: the output checks need {module}, which is not installed", file=sys.stderr)
            return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)

    from loopgrowth import cli

    signal.signal(signal.SIGALRM, _on_alarm)
    args.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reqs = workloads.build(args.workload, args.seed)
    measure_fn = per_layer if args.trace else end_to_end
    wrong, attempted, failed, values, notes = measure_fn(args, reqs, cli.run)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in args.spec[kind]}
    for line in notes:
        print(line)
    for problem in wrong:
        print(f"WRONG {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
