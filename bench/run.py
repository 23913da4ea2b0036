"""Benchmark harness for gradedcy: fresh CLI processes timed end to end.

Run from the repository root:

    python3 bench/run.py --workload gorenstein --seed 1 --seconds 30 --trace 0

`--trace 0` times passes over the workload's `python -m gradedcy.cli ...
--format json` commands, one command at a time (closed loop, one client),
for about `--seconds`, and reports the end-to-end metrics.  `--trace 1`
alternates an untraced pass with a pass of `bench/tracer.py`, which runs
the same commands in-process with spans around each layer's public calls,
and reports the per-layer metrics and the tracing overhead.  `--smoke`
swaps in tiny inputs and makes one pass.

Every answer is checked against its oracle (see workloads.py).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a fuller record, stamped with the
Python version, commit, nproc and load average, goes to `bench/results/`.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import workloads
from layers import COUNTERS, MAXIMA, SPAN_METRICS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RESULTS = os.path.join(BENCH, "results")

# A child may not outgrow this address space: a runaway becomes a failed
# command instead of exhausting the machine's memory.  The largest workload
# peaks near 121 MB resident.
MEMORY_LIMIT = 2 << 30
# Every run ends within this many seconds; each child gets what is left.
RUN_DEADLINE = 170.0

SETUP_CODE = """\
import sys
import gradedcy.cli
for kind, path in zip(sys.argv[1::2], sys.argv[2::2]):
    if kind == "dimer":
        from gradedcy.dimer import load_dimer
        load_dimer(path)
    else:
        from gradedcy.quiver import load_presentation
        load_presentation(path)
"""


@dataclass
class Child:
    wall: float       # seconds from spawn to reaped exit
    rss_mb: float     # peak resident set (see Runner)
    cpu: float
    output: str       # file holding the child's standard output
    error: str | None


class Runner:
    """Starts one child at a time and accounts for it with wait4, so each
    child's max-RSS and CPU time are its own (RUSAGE_CHILDREN would keep
    the largest child seen so far).

    A forked child's max-RSS also covers the parent's resident set at the
    fork.  So children write their output to files in `outdir`, and
    answers are read and checked only after timing: while timing, the
    harness (about 17 MB) stays smaller than the smallest timed child
    (about 19 MB)."""

    def __init__(self, started, outdir):
        self.started = started
        self.outdir = outdir
        self.spawned = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")

    def run(self, argv):
        budget = RUN_DEADLINE - (time.perf_counter() - self.started)
        self.spawned += 1
        out = os.path.join(self.outdir, f"child{self.spawned}.out")
        if budget < 1:
            return Child(0.0, 0.0, 0.0, out, "timeout: run deadline reached")
        limit = int(budget)

        def limits():
            resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT,
                                                    MEMORY_LIMIT))
            resource.setrlimit(resource.RLIMIT_CPU, (limit, limit + 1))
            signal.alarm(limit)  # survives exec; kills a child gone idle

        with open(out, "wb") as stdout, open(out + ".err", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=stdout, stderr=err,
                                    preexec_fn=limits)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-400:].decode("utf-8", "replace").strip()
        error = None
        if code in (-signal.SIGALRM, -signal.SIGXCPU, -signal.SIGKILL):
            error = f"timeout after {wall:.1f} s"
        elif "MemoryError" in tail:
            error = f"memory limit ({MEMORY_LIMIT >> 20} MB address space)"
        elif code != 0:
            error = f"exit code {code}: {tail[-200:]}"
        return Child(wall, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime, out, error)


def read_answer(cmd, child, traced=False):
    """(parsed output, None) when the command exited 0 and its answer (and,
    traced, its fingerprint) matches; otherwise (None, the reason)."""
    if child.error:
        return None, child.error
    try:
        with open(child.output, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError:
        return None, "answer is not JSON"
    answer = data
    if traced:
        for key, want in cmd.fingerprint.items():
            if data["fingerprint"].get(key) != want:
                return None, \
                    f"fingerprint {key}: {data['fingerprint'].get(key)}"
        answer = data["answer"]
    reason = cmd.check(answer)
    return (None, reason) if reason else (data, None)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.errors = []

    def count(self, label, reason):
        self.attempted += 1
        if reason:
            self.errors.append(f"{label}: {reason}")

    def check(self, cmd, child, traced=False):
        """Count one command; its parsed output, or None if it failed."""
        data, reason = read_answer(cmd, child, traced)
        self.count(" ".join(cmd.argv), reason)
        return data


def start_up_argvs(wl):
    """The start-up a workload pays per pass: interpreter start,
    `import gradedcy.cli` and parsing its inputs, once per command, with
    no computation."""
    return [["-c", SETUP_CODE] + [x for pair in cmd.inputs for x in pair]
            for cmd in wl.commands]


def start_up(runner, argvs):
    """One start-up sample: its seconds and the first child error."""
    children = [runner.run(argv) for argv in argvs]
    return (sum(c.wall for c in children),
            next((c.error for c in children if c.error), None))


CLI = ["-m", "gradedcy.cli", "--format", "json"]
TRACER = [os.path.join(BENCH, "tracer.py")]


def run_pass(runner, wl, prefix):
    """One pass over the workload's commands, unchecked; the children."""
    return [(cmd, runner.run(prefix + cmd.argv)) for cmd in wl.commands]


def wall(done):
    return sum(child.wall for _, child in done)


def keep_going(started, seconds, samples):
    """Run another pass only if it is expected to end within `seconds`."""
    if not samples:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(samples) <= seconds


def measure(runner, wl, seconds, tally):
    argvs = start_up_argvs(wl)
    for argv in argvs:  # untimed: fills bytecode and file caches
        runner.run(argv)
    started = time.perf_counter()
    passes, walls, setups, cycles, reason = [], [], [], [], None
    while keep_going(started, seconds, cycles):
        # a start-up sample before every pass, so that the samples spread
        # over the run like the passes and meet the same host speeds
        setup, error = start_up(runner, argvs)
        reason = reason or error
        passes.append(run_pass(runner, wl, CLI))
        setups.append(setup)
        walls.append(wall(passes[-1]))
        cycles.append(setup + walls[-1])
    # the start-up is one operation, failed if any of its children failed
    tally.count("start-up", reason)
    for done in passes:
        for cmd, child in done:
            tally.check(cmd, child)
    metrics = {
        # the mean, not the median: host speed shifts between two levels
        # for seconds to minutes, and the median of a run's passes jumps
        # to whichever level held longest, where the mean averages them
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mb": (max(child.rss_mb for done in passes
                            for _, child in done), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "success_rate": (1 - len(tally.errors) / tally.attempted, "ratio"),
    }
    cpus = [sum(child.cpu for _, child in done) for done in passes]
    return metrics, {"wall_s": walls, "cpu_s": cpus, "setup_s": setups}


def measure_traced(runner, wl, seconds, tally):
    started = time.perf_counter()
    plain, traced, totals = [], [], []
    while keep_going(started, seconds, totals):
        plain.append(run_pass(runner, wl, CLI))
        traced.append(run_pass(runner, wl, TRACER))
        totals.append(wall(plain[-1]) + wall(traced[-1]))
    per_pass, names = [], {}
    for done in plain:
        for cmd, child in done:
            tally.check(cmd, child)
    for done in traced:
        layers = dict.fromkeys(SPAN_METRICS, 0)
        layers.update(dict.fromkeys(COUNTERS + MAXIMA, 0))
        names = {}
        for cmd, child in done:
            data = tally.check(cmd, child, traced=True)
            if data is None:
                continue
            for key, value in data["layers"].items():
                layers[key] = max(layers[key], value) if key in MAXIMA \
                    else layers[key] + value
            for key, row in data["names"].items():
                names[" ".join(cmd.argv[:2]) + " " + key] = row
        per_pass.append(layers)
    metrics = {key: (statistics.median(p[key] for p in per_pass),
                     "s" if key.endswith("_s") else "count")
               for key in per_pass[0]}
    plain_walls = [wall(done) for done in plain]
    traced_walls = [wall(done) for done in traced]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls),
        "ratio")
    return metrics, {"untraced_wall_s": plain_walls,
                     "traced_wall_s": traced_walls,
                     "spans_last_pass": names}


def commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one pass: checks the answer path")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for need in ("src/gradedcy/cli.py", "data/k_xyz.pres"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"bench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    stamp = {"python": sys.version, "commit": commit(),
             "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
             "argv": sys.argv[1:],
             "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime())}
    tally = Tally()
    seconds = 0 if args.smoke else args.seconds
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        runner = Runner(time.perf_counter(), tmp)
        wl = workloads.build(args.workload, args.seed, args.smoke, tmp)
        for cmd in wl.prechecks:
            tally.check(cmd, runner.run(CLI + cmd.argv))
        if args.trace:
            metrics, detail = measure_traced(runner, wl, seconds, tally)
        else:
            metrics, detail = measure(runner, wl, seconds, tally)
    stamp["loadavg_end"] = os.getloadavg()
    stamp["harness_max_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(result, error_rate=len(tally.errors) / tally.attempted,
                  workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                  environment=stamp, errors=tally.errors, samples=detail)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}-{os.getpid()}.json")
    path = os.path.join(RESULTS, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"results: {path}")
    for err in tally.errors:
        print(f"error: {err}")
    for key, sample in detail.items():
        if key != "spans_last_pass":
            print(f"{key}: {len(sample)} samples: "
                  + " ".join(f"{x:.3f}" for x in sample))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
