"""consumerlab benchmark: end-to-end and per-layer timings with an output gate.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop: one client, one operation in flight):

    pair_long         one default `run_pair` (40 consumers, 165 x 165 grid,
                      10,000 cycles), then both run CSVs
    experiment_short  `consumerlab experiment` with 2 x nproc pairs on nproc
                      workers at `cycles = 2000`
    analyze_30        `consumerlab analyze` over 30 pairs of seeded synthetic
                      full-length run CSVs

Every operation runs in a fresh interpreter that imports the program from
`src/`. Inputs come from a pool of ENTRIES recorded entries per workload:
run seed N starts at entry N mod ENTRIES, and on the simulation workloads
each further operation takes the next entry, so that a run averages over
more than one input. Every file an operation writes must match the digest
recorded for its entry in digests.json.

`--trace 0` times the set-up (fresh import plus the first world, or plus
config resolution for analyze_30) several times, then runs operations for
S seconds, and reports medians of wall time, CPU time (with workers), set-up
time and peak RSS. `--trace 1` runs one untraced and one traced operation
and reports the per-layer metrics of tracer.py; the trace is kept under
`.bench_traces/`. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
ENTRIES = 12            # recorded inputs per workload
RUN_LIMIT_S = 170.0     # every run ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# per-layer counts that must repeat exactly for the same input
REPEAT_COUNTS = ("harness.init_calls", "products.layouts", "agents.act_calls",
                 "space.respawns", "network.strengthen_calls.social",
                 "network.referrals.social", "network.strengthen_calls.nonsocial",
                 "network.referrals.nonsocial")

PY = sys.executable or "python3"
OPS = os.path.join(HERE, "ops.py")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    setup_reps = 3
    simulates = True
    inputs_digest = ""
    # each operation of a run takes the next input entry
    next_entry_per_op = True

    def __init__(self, entry: int, work: str):
        self.entry = entry
        self.work = work

    def prepare(self) -> list[str]:
        """Write the inputs; return problems with them."""
        return []

    def traced_argv(self, out_dir: str, trace_dir: str, op_id: str) -> list[str]:
        argv = self.op_argv(out_dir)
        if argv[1] == "-m":
            argv = [PY, OPS, "cli"] + argv[3:]
        return argv[:2] + ["--trace", trace_dir, op_id] + argv[2:]


class PairLong(Workload):
    name = "pair_long"

    @property
    def seed(self) -> int:
        return self.entry + 1

    @property
    def key(self) -> str:
        return f"seed={self.seed}"

    def setup_argv(self) -> list[str]:
        return [PY, OPS, "setup", "-", str(self.seed)]

    def op_argv(self, out_dir: str) -> list[str]:
        return [PY, OPS, "pair", str(self.seed), out_dir]


class ExperimentShort(Workload):
    name = "experiment_short"

    def __init__(self, entry: int, work: str):
        super().__init__(entry, work)
        self.workers = nproc()
        self.pairs = 2 * self.workers
        self.seed_base = 1 + entry * self.pairs
        self.config = os.path.join(work, "short.cfg")

    @property
    def key(self) -> str:
        return f"pairs={self.pairs},seed_base={self.seed_base}"

    def prepare(self) -> list[str]:
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("cycles = 2000\n")
        return []

    def setup_argv(self) -> list[str]:
        return [PY, OPS, "setup", self.config, str(self.seed_base)]

    def op_argv(self, out_dir: str) -> list[str]:
        return [PY, "-m", "consumerlab.cli", "experiment",
                "--pairs", str(self.pairs), "--workers", str(self.workers),
                "--seed-base", str(self.seed_base), "--out-dir", out_dir,
                "--config", self.config]


class Analyze30(Workload):
    name = "analyze_30"
    setup_reps = 5
    simulates = False
    # the 150 MB of inputs are generated once per run and analyzed repeatedly
    next_entry_per_op = False

    def __init__(self, entry: int, work: str):
        super().__init__(entry, work)
        self.inputs = os.path.join(work, "inputs")

    @property
    def key(self) -> str:
        return f"data_seed={self.entry}"

    def prepare(self) -> list[str]:
        import synth
        from consumerlab.harness import RUN_CSV_HEADER
        synth.write_inputs(self.inputs, self.entry, RUN_CSV_HEADER)
        self.inputs_digest = tree_digest(self.inputs)
        return synth.check_inputs(self.inputs, RUN_CSV_HEADER)

    def setup_argv(self) -> list[str]:
        return [PY, OPS, "setup", "-"]

    def op_argv(self, out_dir: str) -> list[str]:
        return [PY, "-m", "consumerlab.cli", "analyze", "--in-dir", self.inputs,
                "--out", os.path.join(out_dir, "report.csv")]


WORKLOADS = {w.name: w for w in (PairLong, ExperimentShort, Analyze30)}


# ---------------------------------------------------------------------------
# processes and digests


class Proc:
    """One finished program invocation, timed from the parent."""

    def __init__(self, argv: list[str], log_path: str, deadline: float):
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(max(0.0, deadline - start),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.monotonic() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        # wait4 covers the process and the workers it reaped
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.log_path = log_path

    def log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-400:].strip().replace("\n", " | ")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dir_digests(path: str) -> dict[str, str]:
    if not os.path.isdir(path):
        return {}
    return {name: file_digest(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name, digest in dir_digests(path).items():
        h.update(f"{name} {digest}\n".encode())
    return h.hexdigest()


def load_recorded() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# runs


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git": git_sha(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """State of one benchmark run: the workload, its checks and its counts."""

    def __init__(self, workload: Workload, recorded: dict, deadline: float):
        self.wl = workload
        self.recorded = recorded.get(workload.name, {})
        self.deadline = deadline
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.seen: dict[str, dict[str, str]] = {}   # input key -> first digests

    def op_workload(self, k: int) -> Workload:
        """The workload instance that operation k (from 0) runs."""
        if k == 0 or not self.wl.next_entry_per_op:
            return self.wl
        return type(self.wl)((self.wl.entry + k) % ENTRIES, self.wl.work)

    def check_inputs(self) -> None:
        self.problems += self.wl.prepare()
        want = self.recorded.get(self.wl.key, {}).get("inputs")
        if want is not None and want != self.wl.inputs_digest:
            self.problems.append("generated inputs differ from the recorded ones")

    def setup_times(self) -> list[float]:
        times = []
        for k in range(self.wl.setup_reps):
            proc = Proc(self.wl.setup_argv(),
                        os.path.join(self.wl.work, f"setup{k}.log"), self.deadline)
            if proc.code != 0:
                self.problems.append(f"set-up exited {proc.code}: {proc.log_tail()}")
            times.append(proc.wall_s)
            print(f"setup {k + 1}: {proc.wall_s:.4f} s exit={proc.code}")
        return times

    def operation(self, label: str, key: str, argv: list[str], out_dir: str) -> Proc:
        """Run one operation on input `key` and apply the output gate to
        what it wrote."""
        self.attempted += 1
        proc = Proc(argv, out_dir + ".log", self.deadline)
        digests = dir_digests(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        faults = []
        if proc.code != 0:
            faults.append(f"exit {proc.code}: {proc.log_tail()}")
        if not digests:
            faults.append("no output files")
        recorded = self.recorded.get(key)
        if recorded is not None and digests != recorded["files"]:
            bad = set(digests.items()) ^ set(recorded["files"].items())
            faults.append(f"outputs differ from the recorded digests: "
                          f"{sorted({name for name, _ in bad})}")
        if self.seen.setdefault(key, digests) != digests:
            faults.append("outputs differ from an earlier operation's")
        gate = ("recorded" if recorded is not None
                else "no record for this input; repeats must agree")
        print(f"{label}: input {key} wall_s={proc.wall_s:.4f} cpu_s={proc.cpu_s:.4f} "
              f"peak_rss_mb={proc.peak_rss_mb:.1f} exit={proc.code} "
              f"files={len(digests)} gate={'FAIL ' + '; '.join(faults) if faults else 'ok'}"
              f" ({gate})")
        if faults:
            self.failed += 1
        return proc


def summarize(name: str, unit: str, values: list[float]) -> float:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    print(f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} ({unit})")
    return med


def measure(run: Run, seconds: float) -> dict:
    setup = run.setup_times()
    procs = []
    start = time.monotonic()
    while True:
        wl = run.op_workload(len(procs))
        out_dir = os.path.join(wl.work, f"op{len(procs) + 1}")
        procs.append(run.operation(f"op {len(procs) + 1}", wl.key,
                                   wl.op_argv(out_dir), out_dir))
        elapsed = time.monotonic() - start
        typical = statistics.median(p.wall_s for p in procs)
        if elapsed + typical > seconds or time.monotonic() + typical > run.deadline:
            break
    ok = [p for p in procs if p.code == 0] or procs
    metrics = {
        "wall_s": summarize("wall_s", "s", [p.wall_s for p in ok]),
        "cpu_s": summarize("cpu_s", "s", [p.cpu_s for p in ok]),
        "setup_s": summarize("setup_s", "s", setup),
        "peak_rss_mb": summarize("peak_rss_mb", "MB", [p.peak_rss_mb for p in ok]),
    }
    print(f"error_rate: {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.6g} (ratio)")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def trace(run: Run, seed: int) -> tuple[dict, dict]:
    """One untraced and one traced operation on the same input; returns
    the per-layer metrics and the merged trace."""
    from tracer import LAYER_METRICS, layer_metrics, merge
    wl = run.wl
    plain = run.operation("op 1 (untraced)", wl.key,
                          wl.op_argv(os.path.join(wl.work, "op1")),
                          os.path.join(wl.work, "op1"))
    trace_dir = os.path.join(wl.work, "trace")
    os.makedirs(trace_dir)
    op_id = f"{wl.name}:seed={seed}:{wl.key}"
    traced = run.operation("op 2 (traced)", wl.key, wl.traced_argv(
        os.path.join(wl.work, "op2"), trace_dir, op_id), os.path.join(wl.work, "op2"))
    records = []
    main_path = os.path.join(trace_dir, "main.json")
    if os.path.exists(main_path):
        with open(main_path, encoding="utf-8") as fh:
            main = json.load(fh)
        records.append(main)
        if not main["restored"]:
            run.problems.append("tracing did not restore the original functions")
        print(f"trace: worker start method {main['start_method']}")
    else:
        run.problems.append("traced operation wrote no trace")
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh)
    merged = merge(records)
    overhead = traced.wall_s - plain.wall_s
    print(f"trace: {len(merged['spans'])} kept spans from {len(records)} "
          f"process records; overhead {overhead:.4f} s on an untraced "
          f"{plain.wall_s:.4f} s ({100 * overhead / plain.wall_s:.1f} %)")
    metrics = layer_metrics(merged, overhead)
    check_layers(run, metrics)
    units = dict(LAYER_METRICS)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} ({units[name]})")
    return ({name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()}, merged)


def check_layers(run: Run, m: dict) -> None:
    zero = [n for n in m if n.startswith("network.") and n.endswith(".nonsocial")]
    if not run.wl.simulates:
        zero += [n for n in m if n.startswith(("network.", "products."))]
    elif m["harness.init_calls"] != 2:
        run.problems.append(f"harness.init_calls is {m['harness.init_calls']}, not 2")
    nonzero = [n for n in zero if m[n] != 0]
    if nonzero:
        run.problems.append(f"expected exactly zero: {nonzero}")
    want = run.recorded.get(run.wl.key, {}).get("counts")
    if want is not None:
        differ = [n for n in REPEAT_COUNTS if m[n] != want[n]]
        if differ:
            run.problems.append(f"counts differ from the recorded ones: {differ}")


def configure() -> bool:
    """Point this process and its children at the program in `src/`, with
    one BLAS/OpenMP thread each; False when the sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "consumerlab", "cli.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, SRC)
    return True


def make_work_dir(label: str) -> str:
    work = os.path.join(ROOT, ".bench_work", f"{label}-{os.getpid()}")
    os.makedirs(work)
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # on SIGTERM, unwind so that the running operation's process group is
    # killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not configure():
        return 2
    entry = args.seed % ENTRIES
    work = make_work_dir(f"{args.workload}-{args.seed}")
    try:
        wl = WORKLOADS[args.workload](entry, work)
        print("env " + json.dumps(environment()))
        print(f"workload={wl.name} seed={args.seed} first input {wl.key} "
              f"seconds={args.seconds:g} trace={args.trace}")
        run = Run(wl, load_recorded(), deadline)
        run.check_inputs()
        if args.trace:
            metrics, merged = trace(run, args.seed)
            keep = os.path.join(ROOT, ".bench_traces")
            os.makedirs(keep, exist_ok=True)
            with open(os.path.join(keep, f"{wl.name}-seed{args.seed}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"metrics": metrics, "spans": merged["spans"],
                           "totals": [[n, a] + v for (n, a), v in merged["totals"].items()],
                           "counts": [[n, a, v] for (n, a), v in merged["counts"].items()]},
                          fh)
        else:
            metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
