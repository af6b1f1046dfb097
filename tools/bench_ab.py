"""Alternating parent/change rounds of the benchmark, written to BENCH_<pr>.json.

    python3 tools/bench_ab.py --pr N

The change is the working tree; the parent is HEAD, exported with `git
archive` into `.bench_ab/` and removed afterwards. For every workload of
BENCHMARK.json, each pair runs `benchmark/run.py --workload W --seed S
--seconds <run_seconds> --trace 0` once on each side, on the same seed, for
the ten seeds of SEEDS, and the side that runs first alternates from pair to
pair. After the rounds, three alternating pairs of `--trace 1` runs at the
held-out seed 11 give the per-layer metrics: every traced value is kept,
with each side's median and quartiles per layer, because host load moves a
single traced run by more than most changes do.

For every end-to-end metric of BENCHMARK.json the file records each side's
values, median and quartiles, the pairs the change won (ties count for
neither side), a verdict on the bound, and whether a gain holds: the change
wins at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range. The verdict is
"unresolved" when either side's interquartile range exceeds the bound
(relative to its median) and not every change run beats every parent run;
otherwise it is "within bound" or "beyond bound" by the change's median.
Every run's `correct` flag and failed count are kept.

`benchmark_changed` records whether `git diff --quiet HEAD -- benchmark
BENCHMARK.json` finds a change in the working tree. When it does, the tool
warns: each side runs its own benchmark, so the rounds compare two
different measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_ab")
# the held-out seed 11 first: it also gives the traced runs
SEEDS = (11, 21, 22, 23, 24, 25, 26, 27, 28, 29)
TRACED_PAIRS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def benchmark_changed() -> bool:
    """Whether the working tree changes the benchmark against HEAD."""
    code = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "benchmark",
                           "BENCHMARK.json"], cwd=ROOT).returncode
    if code not in (0, 1):
        raise RuntimeError(f"git diff exited with status {code}")
    return code == 1


def export(rev: str) -> str:
    """A directory holding the files of commit `rev`."""
    os.makedirs(WORK, exist_ok=True)
    target = tempfile.mkdtemp(prefix="parent-", dir=WORK)
    archive = os.path.join(target, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            # Pythons before 3.10.12 and 3.11.4 have no extraction filters;
            # the archive is git's own export of a commit
            tar.extractall(target)
    os.remove(archive)
    return target


def bench(root: str, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One benchmark run from the checkout at `root`; its final JSON line
    plus the environment line."""
    argv = [sys.executable, os.path.join(root, "benchmark", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            # run.py kills its operation's process group on SIGTERM
            proc.terminate()
            proc.wait()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} in {root} printed no "
                           f"result: {out[-400:]}") from None
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), {})
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "env": env,
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def alternate(k: int) -> tuple[str, str]:
    """The order of the two sides in pair `k`: the parent runs first in
    pairs 0, 2, 4, ..."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def per_layer(traced: list[dict]) -> dict:
    """Each side's spread of every metric its traced runs report."""
    return {side: {name: spread([pair[side]["metrics"][name]
                                 for pair in traced])
                   for name in traced[0][side]["metrics"]}
            for side in ("parent", "change")}


def compare(pairs: list[dict], metric: dict) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["parent"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    gain = sign * (before["median"] - after["median"])
    worse_by = -gain / before["median"] if before["median"] else 0.0
    widest = max((side["q3"] - side["q1"]) / side["median"]
                 if side["median"] else 0.0 for side in (before, after))
    beats_every_run = (max(sign * c for c in change)
                       < min(sign * p for p in parent))
    if widest > metric["bound"] and not beats_every_run:
        verdict = "unresolved"
    else:
        verdict = "within bound" if worse_by <= metric["bound"] else "beyond bound"
    return {
        "unit": metric["unit"], "bound": metric["bound"],
        "parent": before, "change": after,
        "change_wins": wins, "pairs": len(pairs),
        "median_change": (after["median"] / before["median"] - 1.0
                          if before["median"] else None),
        "widest_relative_iqr": widest,
        "verdict": verdict,
        "gain_holds": (wins >= 0.9 * len(pairs)
                       and gain > before["q3"] - before["q1"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, type=int)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds, seconds = SEEDS, spec["run_seconds"]
    parent_rev = git("rev-parse", "HEAD")
    changed = benchmark_changed()
    if changed:
        print("warning: the working tree changes benchmark/ or BENCHMARK.json; "
              "each side runs its own benchmark, so the A/B compares two "
              "different measurements", file=sys.stderr)
    sides = {"change": ROOT}
    report = {
        "parent": parent_rev,
        "change": f"working tree on {parent_rev}",
        "benchmark_changed": changed,
        "settings": {"seconds": seconds, "seeds": list(seeds),
                     "trace_seed": seeds[0], "traced_pairs": TRACED_PAIRS,
                     "order": "alternating; the parent runs first in "
                              "pairs 1, 3, 5, ..."},
        "env": None,
        "workloads": {},
    }
    try:
        sides["parent"] = export(parent_rev)
        for workload in workloads:
            pairs = []
            for k, seed in enumerate(seeds):
                order = alternate(k)
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(sides[side], workload, seed, seconds, 0)
                    env = pair[side].pop("env")
                    report["env"] = report["env"] or env
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{side} wall_s={pair[side]['metrics']['wall_s']:.3f} "
                    f"correct={pair[side]['correct']}"
                    for side in ("parent", "change")), flush=True)
                pairs.append(pair)
            traced = []
            for k in range(TRACED_PAIRS):
                pair = {"first": alternate(k)[0]}
                for side in alternate(k):
                    pair[side] = bench(sides[side], workload, seeds[0],
                                       seconds, 1)
                    pair[side].pop("env")
                traced.append(pair)
            runs = pairs + traced
            report["workloads"][workload] = {
                "all_correct": all(r[side]["correct"] and not r[side]["failed"]
                                   for r in runs for side in ("parent", "change")),
                "metrics": {m["name"]: compare(pairs, m)
                            for m in spec["end_to_end"]},
                "runs": pairs,
                "trace": {"seed": seeds[0], "runs": traced,
                          "per_layer": per_layer(traced)},
            }
    finally:
        if "parent" in sides:
            shutil.rmtree(sides["parent"], ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
