"""Seeded synthetic run CSVs for the `analyze_30` workload.

Writes 30 pairs of full-length run files (500 samples x 40 consumers, one
row per consumer per sample) in the program's run CSV format, so that
`consumerlab analyze` can be timed without simulating anything. The same
seed always gives the same bytes.
"""

from __future__ import annotations

import os

import numpy as np

N_PAIRS = 30
N_SAMPLES = 500
N_CONSUMERS = 40
SAMPLE_EVERY = 20
ARMS = ("social", "nonsocial")

# one row: cycle, consumer_id, units, utility, then the six ideal components,
# floats at 17 significant digits as the program writes them
_ROW = "%d,%d,%d" + ",%.17g" * 7 + "\n"


def _run_csv_text(rng: np.random.Generator, header: list[str]) -> str:
    n = N_SAMPLES * N_CONSUMERS
    cycles = np.repeat(np.arange(1, N_SAMPLES + 1) * SAMPLE_EVERY, N_CONSUMERS)
    ids = np.tile(np.arange(N_CONSUMERS), N_SAMPLES)
    # consumption per period decays from a seeded start rate, as simulated
    # runs do; each unit carries a utility in (-1, 1)
    start_rate = rng.uniform(0.15, 0.6)
    rate = start_rate * np.exp(-cycles / rng.uniform(2_000.0, 20_000.0))
    units = rng.poisson(rate)
    per_unit = rng.uniform(-0.6, 1.0, size=n)
    utility = np.where(units > 0, units * per_unit, 0.0)
    # ideals: a random walk per consumer, clamped at zero
    start = rng.uniform(0.3, 1.2, size=(1, N_CONSUMERS, 6))
    steps = rng.normal(0.0, rng.uniform(0.005, 0.03), size=(N_SAMPLES, N_CONSUMERS, 6))
    ideals = np.maximum(start + np.cumsum(steps, axis=0), 0.0).reshape(n, 6)
    rows = zip(cycles.tolist(), ids.tolist(), units.tolist(), utility.tolist(),
               *ideals.T.tolist())
    return ",".join(header) + "\n" + "".join(_ROW % row for row in rows)


def file_names() -> list[str]:
    return [f"run_{pair}_{arm}.csv" for pair in range(1, N_PAIRS + 1)
            for arm in ARMS]


def write_inputs(directory: str, seed: int, header: list[str]) -> None:
    """Write the 60 run CSVs of data seed `seed` into `directory`."""
    os.makedirs(directory, exist_ok=True)
    for pair in range(1, N_PAIRS + 1):
        for arm_index, arm in enumerate(ARMS):
            rng = np.random.default_rng([seed, pair, arm_index])
            path = os.path.join(directory, f"run_{pair}_{arm}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_run_csv_text(rng, header))


def check_inputs(directory: str, header: list[str]) -> list[str]:
    """Problems with the written files: names, exact header, and the full
    500 x 40 shape (cycle and consumer id of every row)."""
    problems = []
    if sorted(os.listdir(directory)) != sorted(file_names()):
        problems.append("unexpected set of input files")
        return problems
    want_head = ",".join(header)
    want_keys = [f"{c * SAMPLE_EVERY},{i}" for c in range(1, N_SAMPLES + 1)
                 for i in range(N_CONSUMERS)]
    for name in file_names():
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines[0] != want_head:
            problems.append(f"{name}: header differs from the run CSV header")
        if lines[-1] != "" or len(lines) != N_SAMPLES * N_CONSUMERS + 2:
            problems.append(f"{name}: expected {N_SAMPLES * N_CONSUMERS} rows")
            continue
        keys = [line.split(",", 2)[0] + "," + line.split(",", 2)[1]
                for line in lines[1:-1]]
        if keys != want_keys:
            problems.append(f"{name}: rows are not {N_SAMPLES} samples x "
                            f"{N_CONSUMERS} consumers in order")
        if any(line.count(",") != len(header) - 1 for line in lines[1:-1]):
            problems.append(f"{name}: ragged rows")
    return problems
