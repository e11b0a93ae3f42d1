"""pfnegf benchmark: time to a verified result of ``negf run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the checkout's ``src``.
Every measurement is a fresh child process, one at a time (a closed loop
with a single client), with BLAS pinned to one thread.

With ``--trace 0`` the benchmark reports, per workload:

* ``wall_s``: median wall seconds of one ``python -m pfnegf.cli run CONFIG
  --out DIR`` child, from spawn to exit, at the reference core speed (see
  below); children are started until the next one would overrun
  ``--seconds`` (at least two);
* ``setup_s``: median wall seconds, at the reference core speed, of a fresh
  interpreter doing the grid-independent set-up every run pays (see
  ``child.py setup``), sampled in batches of ``SETUP_BATCH`` before each CLI
  child and after the last;
* ``peak_rss_mb``: median peak resident set of the CLI children, each read
  from that child's own rusage.

The host is shared: other tenants slow a core by up to about 1.5x, in
stretches of seconds to minutes, so raw wall times of the same code differ
by more than a regression worth catching.  The benchmark therefore pins
itself and every child to one CPU and runs a ``CoreProbe`` thread on it: a
fixed piece of work every ``PROBE_PERIOD_S``, timed in its own CPU time.
Each child's wall time is divided by the probe's mean cost during that
child over ``PROBE_REF_S``, a reference cost.  A change that makes
the program do more work still shows in full; only the core's speed is
taken out.  The raw wall times and slowdown factors are printed as comments.

With ``--trace 1`` it alternates untraced and traced CLI children and
reports per-layer self times, call counts and computed sizes (see
``tracer.py``), after a self-check of the tracer on a tiny model.

Every CLI child passes the correctness gate or counts as failed: exit status
0, ``dyson_report.json`` passing, on ``ref-cli`` also ``convergence.json``
and ``gamma_report.json`` passing, and every artifact byte-identical to the
workload's first run in the same invocation.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark refuses to report (exit 3) if the BLAS thread
count in effect in the children is not 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# before numpy is imported here: the probe must run on one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 2
SETUP_BATCH = 6
TRIMER_STEPS = (6, 12)
TIME_LIMIT_S = 170
PROBE_PERIOD_S = 0.1
# Reference CPU seconds of one probe: about its mean cost while a CLI child
# shared an uncontended core (1.36 to 1.44 ms) on a 2-vCPU Xeon (Sapphire
# Rapids) KVM guest.  Only a scale; a slowdown below 1 means a faster core.
PROBE_REF_S = 0.0014


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory inside the checkout, removed with everything in it."""
    work = ROOT / ".perfbench_work" / name
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    log: Path


class CoreProbe:
    """Speed of the benchmark's CPU, sampled while the children run on it.

    A thread wakes every ``PROBE_PERIOD_S``, multiplies small complex
    matrices and runs a short interpreter loop, much like the program's own
    mix, and records when it started and the CPU time it took.  CPU time
    excludes the time the thread waits for a child, but not the slowdown of
    a core that other tenants share.  About 1.5 % of the core goes to it.

    The probe works in cache.  Adding a 16 MB streamed read made it follow
    lead3-verify, which streams its 296 MB history, more closely under heavy
    contention, but made it overstate ref-cli's slowdown by up to 15 %.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._m = m / np.linalg.norm(m, 2)
        self.samples = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()

    def _work(self) -> int:
        x = self._m
        for _ in range(20):
            x = self._m @ x
        total = 0
        for i in range(3000):
            total += i * i
        return total

    def _loop(self) -> None:
        while not self._done.wait(PROBE_PERIOD_S):
            start, cpu = time.monotonic(), time.thread_time()
            self._work()
            self.samples.append((start, time.thread_time() - cpu))

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe cost between ``start`` and ``end`` over ``PROBE_REF_S``."""
        inside = [cost for at, cost in self.samples if start <= at <= end]
        if not inside:
            raise RuntimeError(f"no core probe between {start:.3f} and {end:.3f}")
        return statistics.fmean(inside) / PROBE_REF_S


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def spawn(make_argv, log: Path) -> Child:
    """Run one child to completion; wall from spawn to exit, its own peak RSS.

    ``make_argv`` receives the ``time.monotonic()`` reading taken at spawn.
    """
    with open(log, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(
            make_argv(start), env=child_env(), cwd=ROOT, stdout=out, stderr=subprocess.STDOUT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Child(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, log)


def cli_argv(config: Path, out: Path):
    return lambda _: [sys.executable, "-m", "pfnegf.cli", "run", str(config), "--out", str(out)]


def traced_argv(config: Path, out: Path, spans: Path):
    return lambda start: [
        sys.executable, str(HERE / "child.py"), "traced", str(spans), repr(start),
        "run", str(config), "--out", str(out),
    ]


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def gate(workload: str, child: Child, out: Path) -> list:
    """Problems with one CLI run's outputs; empty when the run passes."""
    problems = []
    if child.code != 0:
        tail = child.log.read_text(encoding="utf-8", errors="replace")[-400:]
        problems.append(f"exit status {child.code}: {tail.strip()}")
    report = _read_json(out / "dyson_report.json")
    if report is None or report.get("pass") is not True:
        problems.append("dyson_report.json missing or not passing")
    if workload == "ref-cli":
        # the CLI exits nonzero when a fitted order is below its tolerance
        if _read_json(out / "convergence.json") is None:
            problems.append("convergence.json missing")
        gamma = _read_json(out / "gamma_report.json")
        if gamma is None or gamma.get("pass") is not True:
            problems.append("gamma_report.json missing or not passing")
    return problems


def digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Runs:
    """CLI children of one invocation, gated and compared with the first."""

    def __init__(self, workload: str, config: Path, work: Path):
        self.workload = workload
        self.config = config
        self.work = work
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def run(self, spans: Path | None = None) -> Child:
        index = self.attempted
        self.attempted += 1
        out = self.work / f"out{index}"
        make = cli_argv(self.config, out) if spans is None else traced_argv(self.config, out, spans)
        child = spawn(make, self.work / f"log{index}.txt")
        problems = gate(self.workload, child, out)
        found = digests(out)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            problems.append("artifacts differ from the first run of this invocation")
        shutil.rmtree(out, ignore_errors=True)
        kind = "traced" if spans is not None else "run"
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"# {kind} {index}: wall {child.wall_s:.3f} s, peak rss {child.rss_mb:.1f} MB, {status}")
        if problems:
            self.failed += 1
        return child


def untraced(args, runs: Runs, work: Path, start: float) -> dict:
    def setup() -> float:
        argv = [sys.executable, str(HERE / "child.py"), "setup", str(runs.config)]
        child = spawn(lambda _: argv, work / "setup.txt")
        if child.code != 0:
            raise RuntimeError("set-up child failed: " + child.log.read_text(errors="replace")[-400:])
        return child.wall_s

    def setup_batch() -> list:
        begin = time.monotonic()
        walls = [setup() for _ in range(SETUP_BATCH)]
        factor = probe.slowdown(begin, time.monotonic())
        raw_setups.extend(walls)
        return [w / factor for w in walls]

    # set-up samples are spread over the run: a batch before each CLI child
    # and one after the last
    setups, raw_setups, children, walls, factors = [], [], [], [], []
    with CoreProbe() as probe:
        setup()  # fills the bytecode cache
        while len(children) < MIN_RUNS or (
            time.monotonic() - start + children[-1].wall_s + 2 * sum(raw_setups[-SETUP_BATCH:])
            <= args.seconds
        ):
            setups.extend(setup_batch())
            begin = time.monotonic()
            children.append(runs.run())
            factors.append(probe.slowdown(begin, time.monotonic()))
            walls.append(children[-1].wall_s / factors[-1])
            print(f"#   core slowdown {factors[-1]:.3f}, wall at reference speed {walls[-1]:.3f} s")
        setups.extend(setup_batch())
    print(f"# raw medians: wall {statistics.median(c.wall_s for c in children):.3f} s, "
          f"set-up {statistics.median(raw_setups):.4f} s; core slowdown {min(factors):.3f} "
          f"to {max(factors):.3f} over {len(probe.samples)} probes")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
    }


def load_spans(path: Path) -> list:
    data = _read_json(path)
    if data is None:
        raise RuntimeError(f"traced child wrote no spans to {path.name}")
    return data["spans"]


def self_check(work: Path) -> list:
    """Run the tracer on the trimer with every task and check what it records."""
    from math import comb

    cfg = workloads.trimer(TRIMER_STEPS)
    n_sample = len(cfg["sample"]["sites"])
    d = n_sample + sum(len(lead["sites"]) for lead in cfg["leads"])
    nodes = {s + 1 for s in TRIMER_STEPS}
    path = work / "trimer.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outs = (work / "trimer_plain", work / "trimer_traced")
    plain = spawn(cli_argv(path, outs[0]), work / "trimer_plain.txt")
    traced_child = spawn(traced_argv(path, outs[1], work / "trimer_spans.json"), work / "trimer.txt")
    spans = load_spans(work / "trimer_spans.json")
    problems = []
    # at a few steps the quadrature checks fail by design (exit 1); tracing must
    # change neither the verdict nor a byte of the artifacts
    if plain.code not in (0, 1) or traced_child.code != plain.code:
        problems.append(f"trimer exit status {plain.code} untraced, {traced_child.code} traced")
    if not digests(outs[0]) or digests(outs[0]) != digests(outs[1]):
        problems.append("tracing changed the trimer's artifacts")

    fired = {s["name"] for s in spans}
    missing = [layer for layer in tracer.LAYERS if layer not in fired]
    if missing:
        problems.append("spans never fired: " + ", ".join(missing))
    for i, s in enumerate(spans):
        parent = spans[s["parent"]] if s["parent"] >= 0 else None
        if s["end"] < s["start"] or (parent is not None and not (
            s["parent"] < i and parent["start"] <= s["start"] and s["end"] <= parent["end"]
        )):
            problems.append(f"span {i} ({s['name']}) does not nest in its parent")
            break
    own = tracer.self_times(spans)
    # The root span runs from spawn until the command returns; what follows,
    # writing the spans and interpreter shutdown, is unspanned.  It must fit in
    # the tracing overhead plus the start and exit of a bare numpy interpreter.
    bare = spawn(lambda _: [sys.executable, "-c", "import numpy"], work / "bare.txt")
    overhead = traced_child.wall_s - plain.wall_s
    unspanned = traced_child.wall_s - sum(own)
    if not 0.0 <= unspanned <= abs(overhead) + bare.wall_s:
        problems.append(
            f"self times miss {unspanned:.4f} s of the traced wall "
            f"(overhead {overhead:.4f} s, bare interpreter {bare.wall_s:.4f} s)"
        )

    # full orbital space, or the sample block of the restricted Dyson check
    dense_gflop = {8.0 * (n * p) ** 3 / 1e9 for n in nodes for p in (d, n_sample)}
    for s in spans:
        if s["name"] == "propagation.grid":
            if s["n_nodes"] not in nodes or s["blocks"] != s["filled_blocks"]:
                problems.append(f"grid blocks {s['blocks']} != filled {s['filled_blocks']}")
            closed = 2 * d * s["n_nodes"] * comb(2 * d, d - 1) * 16
            if s["strategy"] == "history" and s["history_bytes"] != closed:
                problems.append(f"history bytes {s['history_bytes']} != closed form {closed}")
        if s["name"] == "volterra.compose" and s["gflop"] not in dense_gflop:
            problems.append(f"compose gflop {s['gflop']} is not 8(n p)^3 for a configured n and p")
    print(f"# self-check: {len(spans)} spans, overhead {overhead:.4f} s, "
          f"unspanned {unspanned:.4f} s, {'ok' if not problems else 'FAILED'}")
    return sorted(set(problems))


def traced(args, runs: Runs, work: Path, start: float) -> tuple:
    problems = self_check(work)
    plain, per_layer, shares = [], [], []
    while not plain or time.monotonic() - start + plain[-1].wall_s + per_layer[-1][0] <= args.seconds:
        plain.append(runs.run())
        spans_path = work / f"spans{len(per_layer)}.json"
        child = runs.run(spans_path)
        spans = load_spans(spans_path)
        per_layer.append((child.wall_s, tracer.layer_metrics(spans)))
        shares.append(tracer.shares(spans))
    metrics = {
        name: (statistics.median(m[name][0] for _, m in per_layer), unit)
        for name, (_, unit) in per_layer[0][1].items()
    }
    overhead = statistics.median(w for w, _ in per_layer) - statistics.median(c.wall_s for c in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    share = {k: statistics.median(s.get(k, 0.0) for s in shares) for k in shares[0]}
    print("# layer shares of the traced wall: "
          + ", ".join(f"{k} {v:.1%}" for k, v in sorted(share.items(), key=lambda kv: -kv[1])))
    return metrics, problems


def blas_probe(work: Path) -> dict:
    child = spawn(lambda _: [sys.executable, str(HERE / "child.py"), "probe"], work / "probe.txt")
    if child.code != 0:
        raise RuntimeError("probe child failed: " + child.log.read_text(errors="replace")[-400:])
    return json.loads(child.log.read_text(encoding="utf-8").strip().splitlines()[-1])


def measure(args, work: Path):
    sys.path.insert(0, str(ROOT / "src"))
    from pfnegf.config import reference_config

    config = work / "config.json"
    config.write_text(json.dumps(workloads.build(args.workload, args.seed, reference_config())))
    # the children share the probe's CPU (see CoreProbe)
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    env = blas_probe(work)
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}; "
          f"nproc {len(cpus)}, pinned to CPU {cpus[-1]}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads in effect {env['blas_threads']}")
    if env["blas_threads"] != 1:
        print(f"refusing to report: BLAS thread count is {env['blas_threads']}, not 1", file=sys.stderr)
        return None
    start = time.monotonic()
    runs = Runs(args.workload, config, work)
    if args.trace:
        metrics, problems = traced(args, runs, work, start)
    else:
        metrics, problems = untraced(args, runs, work, start), []
    for problem in problems:
        print(f"# self-check problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"{'failed_runs':28s} {runs.failed}/{runs.attempted}")
    ok = runs.failed == 0 and not problems and all(math.isfinite(v) for v, _ in metrics.values())
    return {
        "correct": ok,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pfnegf" / "cli.py").is_file():
        print(f"no pfnegf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        with scratch_dir(str(os.getpid())) as work:
            result = measure(args, work)
    finally:
        signal.alarm(0)
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
