"""banddet benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's operations are drawn from
the seed (see workloads.py) and run in a closed loop by one caller: each
operation starts when the previous one has finished and been checked.  The
loop stops at the first end of a pass (see workloads.PASS_ROUNDS) once S
seconds have passed and at least MIN_OPS operations ran.
Each operation is timed alone; its output is checked outside the timing.

Times are scaled to a reference speed.  On a shared 2-vCPU cloud VM the
CPU speed drifts between a fast and a slow state (about 35% apart) within
seconds and for minutes at a time.  So right before and right after each timed operation
the harness times a fixed piece of reference work (reference_s), and
multiplies the operation's wall time by REF_NOMINAL_S / (the reference's
mean time): the result is the time the operation would take on a machine
where the reference takes REF_NOMINAL_S.
Raw wall times are printed alongside and kept in the result file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop,
then replays its first REPLAY_ROUNDS rounds with span wrappers installed and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A result file and,
for traced runs, the spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100  # p90 keeps at least ten samples beyond it
SETUP_SPAWNS = 9
REPLAY_ROUNDS = 2
REF_LOOP = 30_000
REF_INT = 3**20000  # 31700 bits
REF_NOMINAL_S = 0.004  # about the reference's median time on a 2-vCPU cloud VM
CLI_VERBS = ("det", "perm", "table", "census", "check")
FAILURE_KINDS = ("render_digits", "wrong", "other")


def reference_s() -> float:
    """Wall time of a fixed piece of work: the machine's current speed.

    Half of it is interpreter work (a pure-Python loop), half is big-integer
    multiplication, the two kinds of work banddet spends its time on; the
    host's slow periods slow the two by different amounts."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    y = REF_INT
    for _ in range(6):
        y = (y * REF_INT) >> 31000
    return time.perf_counter() - t0


@dataclass
class Record:
    op: tuple
    seconds: float  # scaled to the reference speed
    raw_seconds: float
    status: str  # "ok" or one of FAILURE_KINDS
    bytes_out: int = 0
    detail: str = ""


class _Runner:
    def run(self, op, op_id=None, tracer=None) -> Record:
        """Execute op once; its scaled time uses the reference work timed
        right before and right after it."""
        want = self.expected(op)
        before = reference_s()
        dt, status, nbytes, detail = self.once(op, want, op_id, tracer)
        scale = 2 * REF_NOMINAL_S / (before + reference_s())
        return Record(op, dt * scale, dt, status, nbytes, detail)


class InProcess(_Runner):
    """Runs operations in this process through banddet's API."""

    def __init__(self, workloads):
        self.w = workloads
        self.expected = workloads.expected

    def once(self, op, want, op_id, tracer):
        gc.collect()  # outside the timing, so no op pays for another's garbage
        t0 = time.perf_counter()
        try:
            result = self.w.execute(op)
        except Exception as exc:  # a raising operation is a failed one
            return time.perf_counter() - t0, "other", 0, repr(exc)[:200]
        dt = time.perf_counter() - t0
        return dt, self.w.verdict(op, result, want), 0, ""


class Cli(_Runner):
    """Runs each operation as one banddet process, one at a time."""

    def __init__(self, workloads):
        self.w = workloads
        self.expected = workloads.cli_expected
        self.env = workloads.child_env()

    def once(self, op, want, op_id, tracer):
        spans_path = None if tracer is None else OUT / f"cli-spans-{os.getpid()}-{op_id}.json"
        t0 = time.perf_counter()
        try:
            proc = self.w.run_cli(op, self.env, spans_path)
        except subprocess.TimeoutExpired as exc:
            return time.perf_counter() - t0, "other", 0, repr(exc)[:200]
        dt = time.perf_counter() - t0
        if spans_path is not None and spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text()), op_id)
            spans_path.unlink()
        status = self.w.cli_verdict(op, proc, want)
        detail = "" if status == "ok" else f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        return dt, status, len(proc.stdout.encode()), detail


def closed_loop(runner, ops, seconds: float, pass_ops: int) -> list[Record]:
    """Run ops until `seconds` have passed and at least MIN_OPS ran, then
    on to the end of the current pass of `pass_ops` operations."""
    records: list[Record] = []
    start = time.perf_counter()
    while (
        len(records) < MIN_OPS
        or len(records) % pass_ops
        or time.perf_counter() - start < seconds
    ):
        records.append(runner.run(next(ops)))
    return records


_SETUP_CHILD = """import time
import banddet.cli
done = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
import sys
sys.path.insert(0, {here!r})
from run import reference_s
reference_s()
print(done, reference_s())
"""


def measure_setup(env) -> tuple[float, float]:
    """Median time, scaled and raw, from spawning an interpreter until
    `import banddet.cli` returns, over SETUP_SPAWNS spawns after one that
    fills the bytecode cache.  The child reports that moment on the
    system-wide monotonic clock, then times the reference work itself (once
    warm): a spawn's speed follows the state of the CPU it ran on, and
    reference work timed in the parent around a spawn is slowed by the
    spawn itself."""
    code = _SETUP_CHILD.format(here=str(HERE))
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        done, ref = proc.stdout.split()
        if i:
            raw = (int(done) - t0) / 1e9
            samples.append((raw * REF_NOMINAL_S / float(ref), raw))
    return (
        statistics.median(s for s, _ in samples),
        statistics.median(r for _, r in samples),
    )


def end_to_end(times, ok, setup_s, peak_rss_mb) -> dict:
    """`times` holds every operation's time, `ok` the correct ones'."""
    d = statistics.quantiles(ok, n=10) if len(ok) >= 2 else None
    return {
        "ops_per_s": (len(ok) / sum(times), "1/s"),
        "latency_p50_ms": (d and d[4] * 1e3, "ms"),
        "latency_p90_ms": (d and d[8] * 1e3, "ms"),
        "ok_ratio": (len(ok) / len(times), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, records, replayed, untraced) -> dict:
    from spans import SPANS, WORK

    out = {}
    agg = tracer.aggregate()
    for name in SPANS:
        a = agg[name]
        out[f"{name}.calls"] = (a["calls"], "count")
        out[f"{name}.self_s"] = (a["self_s"], "s")
        if name in WORK:
            out[f"{name}.{WORK[name]}"] = (a["work"], "count")
    for verb in CLI_VERBS:
        ok = [r.seconds for r in records if r.status == "ok" and r.op[0] == "cli" and r.op[1][0] == verb]
        out[f"cli.{verb}.latency_p50_ms"] = (statistics.median(ok) * 1e3 if ok else 0.0, "ms")
    out["cli.bytes_out"] = (sum(r.bytes_out for r in replayed), "count")
    for kind in FAILURE_KINDS:
        out[f"cli.fail.{kind}"] = (
            sum(1 for r in replayed if r.op[0] == "cli" and r.status == kind), "count"
        )
    traced_s = sum(r.seconds for r in replayed)
    untraced_s = sum(r.seconds for r in untraced)
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return out


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def fail_ratio(records) -> float:
    return sum(1 for r in records if r.status != "ok") / len(records)


def traced_replay(runner, workload: str, ops):
    """Run ops again with span wrappers installed: in this process, or for
    cli in each child through launch.py.  Returns (tracer, records)."""
    from spans import Tracer

    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    if workload != "cli":
        tracer.install()
    replayed = []
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            replayed.append(runner.run(op, i, tracer))
    finally:
        tracer.uninstall()
    return tracer, replayed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    runner = (Cli if workload == "cli" else InProcess)(workloads)
    # also warms the bytecode cache before anything is timed
    setup_s, raw_setup_s = measure_setup(workloads.child_env())
    ops = workloads.op_stream(workload, seed)
    records = closed_loop(runner, ops, seconds, workloads.pass_size(workload))
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    replayed = []
    raw = {}
    if trace:
        # MIN_OPS exceeds REPLAY_ROUNDS rounds of every workload
        untraced = records[: REPLAY_ROUNDS * workloads.round_size(workload)]
        tracer, replayed = traced_replay(runner, workload, [r.op for r in untraced])
        metrics = per_layer(tracer, records, replayed, untraced)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
    else:
        metrics = end_to_end(
            [r.seconds for r in records],
            [r.seconds for r in records if r.status == "ok"],
            setup_s,
            peak_rss_mb,
        )
        raw = end_to_end(
            [r.raw_seconds for r in records],
            [r.raw_seconds for r in records if r.status == "ok"],
            raw_setup_s,
            peak_rss_mb,
        )

    done = records + replayed
    failed = [r for r in done if r.status != "ok"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "fail_ratio": fail_ratio(records),
        "failures": {k: sum(1 for r in failed if r.status == k) for k in FAILURE_KINDS},
        "failure_examples": [f"{r.op}: {r.status} {r.detail}" for r in failed[:5]],
        "raw_wall_metrics": {k: v for k, (v, u) in raw.items()},
        "summary": {
            "correct": not any(r.status == "wrong" for r in done),
            "attempted": len(done),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("closed-form", "census", "verify", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "banddet" / "__init__.py").is_file():
        print(f"error: no banddet package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the harness reads children's answers back as ints, whatever their size;
    # children keep the default limit
    sys.set_int_max_str_digits(0)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(result["env"]))
    summary = result["summary"]
    print(f"operations: {summary['attempted']} attempted, {summary['failed']} failed {result['failures']}")
    for line in result["failure_examples"]:
        print(f"  failed: {line}")
    if not args.trace:
        print(f"fail_ratio {result['fail_ratio']} ratio")
    for key, m in summary["metrics"].items():
        raw = result["raw_wall_metrics"].get(key)
        note = f"  (raw wall: {raw})" if m["unit"] in ("s", "ms", "1/s") and raw is not None else ""
        print(f"{key} {m['value']} {m['unit']}{note}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
