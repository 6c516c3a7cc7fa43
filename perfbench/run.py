"""weylmod benchmark: one closed-loop client sending checked classification requests.

Run from the repository root:

    python3 perfbench/run.py --workload charp_certify --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass over the same seeded requests, and the tracing overhead.  Lines
before it are a human-readable summary.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
IMPORT_PROBES = 3
MIN_SAMPLES = 110  # at least ten samples lie beyond the 90th percentile
WORKLOADS = ("charp_certify", "quiver_oracle", "char0_tame")
# Cycles in the traced pass; a fixed number keeps the per-layer counts exact.
TRACE_CYCLES = {"char0_tame": 8}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one tiny cycle per pass, for the smoke test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    return args


def wall_of(cmd) -> float:
    """Wall time of a fresh child process, from spawn until it has exited."""
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(args) -> float:
    """Median time for a fresh process to import weylmod and build the requests."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    probes = 1 if args.smoke else SETUP_PROBES
    return statistics.median(wall_of(cmd) for _ in range(probes))


class Tally:
    """Outcomes of one pass: latencies, statuses and wrong verdicts by cause.

    A wrong answer at a request tagged with a documented defect is a known
    wrong verdict; any other wrong answer or unexpected error is a failure.
    """

    def __init__(self):
        self.latencies = []
        self.cycles = []  # (requests, seconds) of each whole cycle
        self.status = Counter()
        self.known = Counter()
        self.unexpected = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def elapsed(self):
        return sum(self.latencies)

    @property
    def failed(self):
        return len(self.unexpected)

    def share(self, status):
        return self.status[status] / self.attempted

    def record(self, judge, req, seconds, value, error):
        status = judge(req, value, error)
        self.latencies.append(seconds)
        self.status[status] += 1
        if status != "wrong":
            return
        if req.known and error is None:
            self.known[req.known] += 1
        else:
            got = repr(error) if error is not None else repr(value)
            self.unexpected.append(f"{req.label}: {got[:160]}")


def run_pass(workloads, requests, tally, clock=time.perf_counter):
    start = len(tally.latencies)
    for req in requests:
        begin = clock()
        try:
            value, error = req.run(), None
        except Exception as exc:  # every outcome is judged; nothing may stop the loop
            value, error = None, exc
        seconds = clock() - begin
        tally.record(workloads.judge, req, seconds, value, error)
    tally.cycles.append((len(requests), sum(tally.latencies[start:])))


def run_timed(workloads, cycles, seconds, min_samples) -> Tally:
    """Whole cycles until the requests took `seconds` and enough samples exist."""
    tally = Tally()
    n = 0
    while True:
        run_pass(workloads, cycles[n % len(cycles)], tally)
        n += 1
        if tally.elapsed >= seconds and tally.attempted >= min_samples:
            return tally


def axpy_us(field, elems, reps=7, calls=50) -> float:
    """Median microseconds of y + a*x on length-40 vectors of field elements."""
    xs, ys, a = elems[:40], elems[40:80], elems[80]
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(calls):
            [y + a * x for x, y in zip(xs, ys)]
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def field_kernel_metrics(seed) -> dict:
    from weylmod import fields

    rng = random.Random(seed)
    gf5 = fields.GF(5)
    gf2 = fields.GF(2)
    gf4 = fields.extend(gf2, fields.Poly(gf2, [1, 1, 1]))
    gen = gf4.gen()
    gfp = [gf5.from_int(rng.randrange(1, 5)) for _ in range(81)]
    tower = [
        gf4.from_int(rng.randrange(2)) + gen * gf4.from_int(rng.randrange(2)) for _ in range(80)
    ]
    tower.append(gen)
    rat = [
        fields.QQ.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(81)
    ]
    return {
        "fields.axpy_gfp_us": (axpy_us(gf5, gfp), "us"),
        "fields.axpy_tower_us": (axpy_us(gf4, tower), "us"),
        "fields.axpy_q_us": (axpy_us(fields.QQ, rat), "us"),
    }


def cli_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", "import weylmod.cli"]
    samples = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def summary_lines(args, tally, label):
    lines = [
        f"{args.workload} seed={args.seed} {label}: {tally.attempted} requests in "
        f"{tally.elapsed:.2f} s of request time, {len(tally.cycles)} cycles",
        f"  ok {tally.status['ok']}  undecided {tally.status['undecided']}  wrong "
        f"{tally.status['wrong']} (known: {dict(tally.known) or 'none'}; unexpected: "
        f"{tally.failed})",
        f"  fail_share {tally.share('wrong'):.4f}  undecided_share "
        f"{tally.share('undecided'):.4f}",
    ]
    lines += [f"  unexpected failure: {u}" for u in tally.unexpected[:5]]
    return lines


def end_to_end(args, workloads, cycles) -> tuple:
    warm = Tally()  # one untimed cycle, so the timed ones start warm
    run_pass(workloads, cycles[-1], warm)
    min_samples = 1 if args.smoke else MIN_SAMPLES
    tally = run_timed(workloads, cycles, 0 if args.smoke else args.seconds, min_samples)
    lat = sorted(tally.latencies)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    beyond = sum(1 for x in lat if x > p90)
    tally.unexpected += warm.unexpected
    lines = summary_lines(args, tally, "timed")
    lines.append(f"  latency samples {len(lat)} ({beyond} beyond the 90th percentile)")
    metrics = {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "throughput_ops_s": (statistics.median(n / s for n, s in tally.cycles), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_seconds(args), "s"),
    }
    return tally, metrics, lines


def traced(workloads, requests):
    """The requests untraced, then traced: (untraced tally, traced tally, tracer)."""
    from tracing import Tracer

    untraced = Tally()
    run_pass(workloads, requests, untraced)
    tracer = Tracer()
    tracer.install()
    again = Tally()
    try:
        run_pass(workloads, requests, again)
    finally:
        tracer.uninstall()
    return untraced, again, tracer


def per_layer(args, workloads, cycles) -> tuple:
    from tracing import layer_metrics

    passes = [req for cycle in cycles[: TRACE_CYCLES.get(args.workload, 1)] for req in cycle]
    tally, again, tracer = traced(workloads, passes)
    metrics = layer_metrics(tracer)
    # cli, jsonio and skeleton: the README commands through cli.main, traced
    # apart so that they leave the workload's own layer figures alone
    runner = workloads.CliRuns(ROOT, args.seed, args.smoke)
    try:
        cli_first, cli_again, cli_tracer = traced(workloads, runner.requests())
    finally:
        runner.close()
    cli_layers = layer_metrics(cli_tracer)
    for name in ("cli.main.self_s", "jsonio.self_s", "skeleton.build_skeleton.self_s"):
        metrics[name] = cli_layers[name]
    metrics.update(field_kernel_metrics(args.seed))
    metrics["cli.import_s"] = (cli_import_seconds(), "s")
    metrics["fail_share"] = (tally.share("wrong"), "share")
    metrics["undecided_share"] = (tally.share("undecided"), "share")
    metrics["trace.overhead"] = (again.elapsed / tally.elapsed - 1.0, "ratio")
    metrics["trace.spans"] = (len(tracer.end), "count")
    # the answers of the other passes must hold too; only the first is counted
    for extra in (again, cli_first, cli_again):
        tally.unexpected += extra.unexpected
    lines = summary_lines(args, tally, "untraced")
    lines.append(
        f"  traced pass {again.elapsed:.2f} s vs untraced {tally.elapsed:.2f} s over "
        f"{tally.attempted} requests; {len(tracer.end)} spans"
    )
    lines.append(
        f"  README commands: {cli_first.attempted} twice in process, wrong "
        f"{cli_first.status['wrong'] + cli_again.status['wrong']} "
        f"(known: {dict(cli_first.known + cli_again.known) or 'none'})"
    )
    return tally, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weylmod" / "__init__.py").is_file():
        print(f"weylmod sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("WEYLMOD_MAX_ENUM", None)  # the library's default budgets only
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    cycles = workloads.build(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        return 0
    # the request lists live for the whole run; keep the collector from
    # rescanning them, which would charge weylmod for the harness's heap
    gc.collect()
    gc.freeze()
    measure = per_layer if args.trace else end_to_end
    tally, metrics, lines = measure(args, workloads, cycles)
    for line in lines:
        print(line)
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
