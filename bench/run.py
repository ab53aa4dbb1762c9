"""End-to-end benchmark of the esymfano CLI.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --smoke

Each workload is a list of CLI invocations, generated from the seed by
bench/inputs.py in a fresh interpreter (timed as set-up), then driven
through esymfano.cli.main(argv) in this process on one thread with stdout
captured.  Every invocation's exit code and report are checked by an
independent oracle (bench/oracles.py).  Workloads:

  xcheck-fp     xcheck (2,6,3): 11,011 tiny F_p planes, so per-plane
                overhead and the double expansion per non-member dominate.
  classify-q    classify on Q documents, d in {3,4}, m in {8,9,10}, half
                certified members and half dense random non-members; the
                non-members take the witness path and set the tail latency.
  invariants-q  invariants on S_4 and B_3 over Q and S_4 over F_101 to
                degree 6: group closure and Reynolds ranks, no expansion.
                The control for work on the fano/poly kernels.
  equations     equations (4,10) and (5,10): the same expansion over 20-30
                sparse variables, and 0.5-0.7 MB of rendered report.

With --trace 0 the timed loop repeats whole rounds of the workload's jobs
until --seconds of call time have passed and prints the end-to-end
metrics: throughput (work units per second: subspaces, planes, scenario
jobs or equations), call_p50_s (median over the jobs of each job's mean
call time), setup_s and peak_rss_mb.  The summary lines above the JSON
also give call_p90_s where a run has at least 100 distinct jobs
(classify-q) and failed_frac, which BENCHMARK.json cannot list because it
is zero on a correct program.  All times are scaled to a reference host
speed measured in the same run (see REF_SECONDS).  With --trace 1 it runs
a fixed number of rounds once untraced and once under bench/tracing.py,
so its counts repeat exactly, and prints the per-layer metrics.  The last
line of stdout is one JSON object.
--smoke runs every workload at tiny sizes, checks the output against
BENCHMARK.json, checks that two traced runs give identical counts, and
checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("xcheck-fp", "classify-q", "invariants-q", "equations")
WORK_UNITS = {"xcheck-fp": "subspaces", "classify-q": "planes", "invariants-q": "jobs", "equations": "equations"}
SETUP_REPS = 7
TAIL_MIN_CALLS = 100  # p90 needs at least ten samples beyond it
CHILD_TIMEOUT = 150

# The speed of a shared host drifts by a quarter and more over minutes, and
# flips between a fast and a slow state within seconds, which would swamp
# the differences the benchmark exists to show.  So every reported time is
# scaled to a reference speed: reference_work(), which shares no code with
# esymfano, runs between calls for REF_SHARE of the time the calls take, and
# each time is multiplied by REF_SECONDS / (mean of the reference times taken
# in the same phase, set-up or calls).  A reported second is thus a second on
# a host that runs reference_work() in REF_SECONDS.  The summary lines print
# the raw figures too.
REF_SECONDS = 0.04
REF_SHARE = 0.2


class BenchError(RuntimeError):
    pass


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import the CLI from this checkout's sources, and the benchmark modules
    that import it."""
    if not os.path.isfile(os.path.join(SRC, "esymfano", "cli.py")):
        fail(f"no esymfano sources under {os.path.relpath(SRC)}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    from esymfano import cli

    import oracles
    import tracing

    return cli, oracles, tracing


# -- reference speed -----------------------------------------------------------


def reference_work():
    """Tuple-keyed dict updates and Fraction sums, the staple operations of
    esymfano's kernels, on the standard library alone."""
    acc = {}
    for i in range(50000):
        key = (i % 31, i % 7, i % 5)
        acc[key] = (acc.get(key, 0) + i * i) % 1000003
    total = Fraction(0)
    for i in range(1, 4000):
        total += Fraction((i * 7919) % 97 - 48, i % 13 + 1)
    return len(acc), total


class Speed:
    """Reference-work timings spread through one run."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def account(self, seconds):
        """Note `seconds` of measured work, and time the reference until it
        has had REF_SHARE of all measured time."""
        self.busy += seconds
        while sum(self.samples) < REF_SHARE * self.busy:
            gc.collect()
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)

    @property
    def scale(self):
        return REF_SECONDS / statistics.mean(self.samples)


# -- set-up ------------------------------------------------------------------


def set_up(workload, seed, size, workdir, speed):
    """Generate the inputs SETUP_REPS times in fresh interpreters; return the
    median wall time and the manifest."""
    cmd = [sys.executable, os.path.join(BENCH, "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", workdir]
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - t0)
        speed.account(times[-1])
        if proc.returncode != 0:
            raise BenchError(f"input generation failed: {proc.stderr.strip()[-500:]}")
        digests.add(proc.stdout.strip())
    if len(digests) != 1:
        raise BenchError("input generation is not deterministic for this seed")
    with open(os.path.join(workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return statistics.median(times), manifest


def prepare_jobs(oracles, manifest, workdir, seed):
    """Resolve document paths and attach what the classify oracle needs."""
    rng = random.Random(f"oracle/{seed}")
    jobs = []
    for job in manifest["jobs"]:
        job = dict(job)
        if "doc" in job:
            path = os.path.join(workdir, job["doc"])
            job["argv"] = job["argv"] + [path]
            if manifest["workload"] == "classify-q":
                job["rows"] = oracles.read_matrix(path)
                job["member"] = oracles.expected_member(job["rows"], rng)
                if job["member"] != (job["kind"] == "member"):
                    raise BenchError(f"{job['doc']}: generated as {job['kind']}, oracle disagrees")
        jobs.append(job)
    return jobs


# -- timed calls -------------------------------------------------------------


def invoke(cli, argv):
    """One CLI invocation: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as e:  # a crash is a failed call, not a crashed run
            rc = f"raised {e!r}"
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


class Tally:
    """Raw call times per job, and the work units of the calls the oracle
    accepted."""

    def __init__(self, oracles, workload):
        self.oracles = oracles
        self.workload = workload
        self.times = {}
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, job, dt, rc, out, err):
        self.attempted += 1
        self.times.setdefault(tuple(job["argv"]), []).append(dt)
        problem = self.oracles.check(self.workload, job, rc, out, err)
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(job['argv'])}: {problem}")
        else:
            self.units += self.oracles.work_units(self.workload, job)

    @property
    def seconds(self):
        return sum(map(sum, self.times.values()))

    def throughput(self, scale=1.0):
        return self.units / (self.seconds * scale)

    def job_means(self, scale=1.0):
        """Each job's mean call time over its repetitions, sorted.  Averaging
        a job's repetitions before taking quantiles keeps the host's fast and
        slow moments out of the latency figures."""
        return sorted(statistics.mean(ts) * scale for ts in self.times.values())


def timed_loop(cli, oracles, workload, jobs, round_len, seconds, speed):
    """Repeat the jobs in order, stopping at the first round boundary after
    `seconds` of call time (or after a round in which every call failed)."""
    tally = Tally(oracles, workload)
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        dt, rc, out, err = invoke(cli, job["argv"])
        tally.record(job, dt, rc, out, err)
        speed.account(dt)
        i += 1
        if i % round_len == 0 and (tally.seconds >= seconds or tally.failed == tally.attempted):
            return tally


def traced_pass(cli, oracles, tracing, workload, jobs, speed):
    """Untraced then traced run of the same jobs.  The traced calls are
    checked only after the tracer is removed, so that the oracles' own calls
    into esymfano are not counted."""
    untraced = Tally(oracles, workload)
    for job in jobs:
        dt, rc, out, err = invoke(cli, job["argv"])
        untraced.record(job, dt, rc, out, err)
        speed.account(dt)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = []
        for job in jobs:
            results.append((job, *invoke(cli, job["argv"])))
            speed.account(results[-1][1])
    finally:
        tracer.uninstall()
    traced = Tally(oracles, workload)
    for result in results:
        traced.record(*result)
    return untraced, traced, tracer


# -- one workload --------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, size):
    cli, oracles, tracing = load_program()
    setup_speed, speed = Speed(), Speed()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        try:
            setup_s, manifest = set_up(workload, seed, size, workdir, setup_speed)
            setup_s *= setup_speed.scale
            jobs = prepare_jobs(oracles, manifest, workdir, seed)
            if trace:
                untraced, traced, tracer = traced_pass(
                    cli, oracles, tracing, workload, jobs[: manifest["traced_jobs"]], speed
                )
                tallies = (untraced, traced)
            else:
                tally = timed_loop(cli, oracles, workload, jobs, manifest["round"], seconds, speed)
                tallies = (tally,)
        except BenchError as e:
            fail(str(e))
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for problem in t.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    scale = speed.scale
    print(f"{workload} seed {seed}: {attempted} calls; host speed factor {scale:.4g} "
          f"(mean of {len(speed.samples)} reference timings); times below are scaled by it")
    if trace:
        overhead = traced.seconds / untraced.seconds - 1
        metrics = tracer.metrics(scale, overhead)
        print(f"  traced {traced.attempted} calls: {untraced.seconds:.3f} s untraced, "
              f"{traced.seconds:.3f} s traced (raw)")
        for name, m in metrics.items():
            print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    else:
        unit = WORK_UNITS[workload]
        times = tally.job_means(scale)
        n = len(times)
        p50 = statistics.median(times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "throughput": {"value": tally.throughput(scale), "unit": "units/s"},
            "call_p50_s": {"value": p50, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"  throughput   {tally.throughput(scale):.6g} {unit}/s "
              f"({tally.units} {unit}; raw {tally.throughput():.6g} {unit}/s)")
        print(f"  call_p50_s   {p50:.6g} s (median over {n} jobs of their mean over "
              f"{tally.attempted} calls; raw {statistics.median(tally.job_means()):.6g} s)")
        if n >= TAIL_MIN_CALLS:
            print(f"  call_p90_s   {statistics.quantiles(times, n=10)[8]:.6g} s (n={n} jobs)")
        else:
            print(f"  call_p90_s   not reported ({n} jobs < {TAIL_MIN_CALLS})")
        print(f"  setup_s      {setup_s:.6g} s (median of {SETUP_REPS} fresh interpreters; "
              f"raw {setup_s / setup_speed.scale:.6g} s)")
        print(f"  peak_rss_mb  {peak_rss_mb:.6g} MB")
        print(f"  failed_frac  {failed / attempted:.6g} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- several workloads in child processes ----------------------------------------


def run_child(args, env=None):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return lines[:-1], json.loads(lines[-1]), proc.stderr


def run_all(seed, seconds, trace):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result, errors = run_child(["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(seconds), "--trace", str(trace)])
        print("\n".join(lines))
        sys.stderr.write(errors)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


# -- smoke test ------------------------------------------------------------------


def check_schema(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise BenchError(f"not correct: {result}")
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(result['metrics'])}")
    for m in declared:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise BenchError(f"{m['name']}: {got}")
        if not trace and not got["value"] > 0:
            raise BenchError(f"{m['name']} is not positive: {got}")


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "0", "--seconds", "0.2", "--size", "tiny"]
        check_schema(run_child(base + ["--trace", "0"])[1], spec, False)
        counts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = run_child(base + ["--trace", "1"], env)[1]
            check_schema(result, spec, True)
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if m["unit"] != "s" and k != "trace.overhead_frac"})
        if counts[0] != counts[1]:
            diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
            raise BenchError(f"{workload}: traced counts differ between runs: {diff}")
        print(f"smoke {workload}: schema ok, {len(counts[0])} exact counts repeat")
    # Without the program's sources the benchmark must refuse to run.
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode == 0 or proc.stdout.strip():
            raise BenchError("benchmark ran without the program's sources")
    print("smoke: refuses to run without sources")
    return {"correct": True, "attempted": len(WORKLOADS) * 3 + 1, "failed": 0, "metrics": {}}


def main(argv=None):
    parser = argparse.ArgumentParser(description="esymfano end-to-end benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--smoke", action="store_true", help="fast self-test of every workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            result = smoke()
        elif args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        elif args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
        else:
            parser.error("give --workload or --smoke")
    except BenchError as e:
        fail(str(e))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
