"""Timing wrappers for one traced benchmark operation.

`Tracer.install()` replaces the program's public functions with wrappers at
every place they are looked up (several are imported by name into
`harness` or `cli`), and `restore()` puts the originals back. Wrappers read
only the clock: they draw no random numbers and change no output byte.

Three kinds of wrapper:

- kept spans: coarse layer boundaries (run, init, type generation, cycle
  step, CSV I/O, statistics). Each keeps an id, parent, name, start, end,
  arm and the operation id, in memory.
- folded spans: per-agent calls (situation rules, actions, predictions,
  respawns, tie updates), millions per run. They nest like spans, but only
  their call count, total and self time are kept, per name and arm.
- counters: the cheapest calls (neighbour lookups, moves, training steps),
  counted but not timed; their time falls to the enclosing span. For calls
  that return a success flag the successes are counted too.

A span's self time is its duration minus the time its child spans cover.
Forked worker processes start with an empty tracer and append their
records to `worker-<pid>.jsonl` whenever their outermost span ends.
"""

from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from time import perf_counter

KEPT, FOLDED, COUNTED, ACCEPTED = "kept", "folded", "counted", "accepted"
ARM = "arm"  # a kept span that also sets the arm of everything beneath it


def _note_layouts(tracer, args, result):
    tracer.add("products.layouts", len(result))
    tracer.add("products.layouts_nonconverged",
               sum(1 for layout in result if not layout.converged))


def _note_types(tracer, args, result):
    tracer.add("products.types_accepted", len(result))


def _note_rows(tracer, args, result):
    tracer.add("harness.read_rows", sum(len(s.units) for s in result))


def _note_write(tracer, args, result):
    tracer.add("serialize.write_bytes", os.path.getsize(args[0]))


def _targets():
    """(span name, kind, note, [(owner, attribute), ...]) for every wrapped
    function; all lookup places of one function share one wrapper."""
    from consumerlab import (agents, cli, cognition, harness, network,
                             products, serialize, space, stats)
    World = harness.World
    return [
        ("cli.cmd_experiment", KEPT, None, [(cli, "cmd_experiment")]),
        ("cli.cmd_analyze", KEPT, None, [(cli, "cmd_analyze")]),
        ("harness.batch", KEPT, None, [(cli, "batch")]),
        ("harness.run_pair", KEPT, None, [(harness, "run_pair")]),
        ("harness.run", ARM, None, [(harness, "run")]),
        ("harness.init_world", KEPT, None, [(harness, "init_world")]),
        ("harness.World.__init__", KEPT, None, [(World, "__init__")]),
        ("products.generate_type_set", KEPT, _note_types,
         [(harness, "generate_type_set")]),
        ("products.layout_signatures", KEPT, _note_layouts,
         [(products, "layout_signatures")]),
        ("harness.prime_consumers", KEPT, None, [(harness, "prime_consumers")]),
        ("harness.World.step", KEPT, None, [(World, "step")]),
        ("harness.run_metrics", KEPT, None,
         [(harness, "run_metrics"), (cli, "run_metrics")]),
        ("products.landscape_distances", KEPT, None,
         [(harness, "landscape_distances")]),
        ("harness.read_run_samples", KEPT, _note_rows,
         [(harness, "read_run_samples"), (cli, "read_run_samples")]),
        ("harness.write_run_csv", KEPT, None,
         [(harness, "write_run_csv"), (cli, "write_run_csv")]),
        ("serialize.atomic_write_text", KEPT, _note_write,
         [(serialize, "atomic_write_text")]),
        ("stats.fdc", KEPT, None, [(stats, "fdc")]),
        ("stats.comparison_row", KEPT, None, [(stats, "comparison_row")]),
        ("stats.gaussian_kde", KEPT, None, [(stats, "gaussian_kde")]),
        ("agents.evaluate_situations", FOLDED, None,
         [(harness, "evaluate_situations")]),
        ("agents.act", FOLDED, None, [(harness, "act")]),
        ("cognition.predict_utility", FOLDED, None,
         [(cognition.AttractivenessState, "predict_utility")]),
        ("space.respawn_product", FOLDED, None,
         [(space.ConsumptionSpace, "respawn_product")]),
        ("network.decay_all", FOLDED, None, [(network.TieGraph, "decay_all")]),
        ("network.strengthen", FOLDED, None, [(network.TieGraph, "strengthen")]),
        ("agents.try_begin_consumption", ACCEPTED, None,
         [(agents, "try_begin_consumption")]),
        ("agents.complete_consumption", COUNTED, None,
         [(agents, "complete_consumption")]),
        ("cognition.train", COUNTED, None,
         [(cognition.SelfOrganizingMap, "train")]),
        ("space.von_neumann_neighbors", COUNTED, None,
         [(space.ConsumptionSpace, "von_neumann_neighbors")]),
        ("space.move_consumer", ACCEPTED, None,
         [(space.ConsumptionSpace, "move_consumer")]),
        ("network.referral", COUNTED, None, [(network, "referral")]),
    ]


class Tracer:
    def __init__(self, op_id: str, out_dir: str):
        self.op_id = op_id
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[tuple] = []   # (id, parent, name, start, end, arm)
        self.stack: list[list] = []    # frames: [name, start, child_s, span_id]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.arm: str | None = None    # "social" / "nonsocial" inside a run
        self.root_parent: str | None = None
        self._next_id = 0
        self._patches: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------------

    def _after_fork(self) -> None:
        # a worker keeps the forking span as the parent of its own roots
        self.root_parent = next((f[3] for f in reversed(self.stack) if f[3]),
                                self.root_parent)
        self.pid = os.getpid()
        self._clear()
        self.stack.clear()

    def _clear(self) -> None:
        self.spans.clear()
        self.totals.clear()
        self.counts.clear()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[(name, self.arm)] += n

    def enter(self, name: str, kept: bool) -> None:
        span_id = None
        if kept:
            self._next_id += 1
            span_id = f"{self.pid}.{self._next_id}"
        self.stack.append([name, perf_counter(), 0.0, span_id])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, span_id = self.stack.pop()
        duration = end - start
        entry = self.totals[(name, self.arm)]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3]),
                          self.root_parent)
            self.spans.append((span_id, parent, name, start, end, self.arm))
        if not self.stack and self.pid != self.main_pid:
            self._flush_worker()

    def records(self) -> dict:
        return {
            "pid": self.pid,
            "spans": [list(s) + [self.op_id] for s in self.spans],
            "totals": [[n, a] + v for (n, a), v in self.totals.items()],
            "counts": [[n, a, v] for (n, a), v in self.counts.items()],
        }

    def _flush_worker(self) -> None:
        path = os.path.join(self.out_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.records()) + "\n")
        self._clear()

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, name, fn, kept, note):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name, kept)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(tracer, args, result)
                return result
            finally:
                tracer.exit()
        return wrapper

    def _arm_wrapper(self, name, fn):
        tracer = self

        def wrapper(config, *args, **kwargs):
            prior = tracer.arm
            tracer.arm = "social" if config.social else "nonsocial"
            tracer.enter(name, True)
            try:
                return fn(config, *args, **kwargs)
            finally:
                tracer.exit()
                tracer.arm = prior
        return wrapper

    def _count_wrapper(self, name, fn, track_accept):
        counts = self.counts
        tracer = self
        accepted = name + ".accepted"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[(name, tracer.arm)] += 1
            if track_accept and result:
                counts[(accepted, tracer.arm)] += 1
            return result
        return wrapper

    def install(self) -> None:
        for name, kind, note, places in _targets():
            owner, attr = places[0]
            original = vars(owner)[attr]
            for other, other_attr in places[1:]:
                if vars(other)[other_attr] is not original:
                    raise RuntimeError(f"{name}: lookup places disagree")
            if kind == ARM:
                wrapper = self._arm_wrapper(name, original)
            elif kind in (COUNTED, ACCEPTED):
                wrapper = self._count_wrapper(name, original, kind == ACCEPTED)
            else:
                wrapper = self._span_wrapper(name, original, kind == KEPT, note)
            for place in places:
                self._patches.append((place[0], place[1], original))
                setattr(place[0], place[1], wrapper)

    def restore(self) -> bool:
        """Put every original back; True when all are back in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original
                 for owner, attr, original in self._patches)
        self._patches.clear()
        return ok


# ---------------------------------------------------------------------------
# per-layer metrics from merged records

ARMS = ("social", "nonsocial")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("products.types_s", "s"), ("products.layouts", "count"),
    ("products.layouts_nonconverged", "count"), ("products.accept_ratio", "ratio"),
    ("harness.init_calls", "count"), ("harness.world_init_s", "s"),
    ("harness.prime_s", "s"),
    *[(f"harness.{m}.{arm}", unit) for arm in ARMS
      for m, unit in (("loop_s", "s"), ("step_ms_p50", "ms"),
                      ("step_ms_p999", "ms"), ("step_self_s", "s"))],
    ("agents.evaluate_s", "s"), ("agents.act_s", "s"), ("agents.act_calls", "count"),
    ("agents.begin_attempts", "count"), ("agents.begin_accept_ratio", "ratio"),
    ("agents.consumptions", "count"),
    ("cognition.train_calls", "count"), ("cognition.predict_calls", "count"),
    ("cognition.predict_s", "s"),
    ("space.neighbor_calls", "count"), ("space.move_calls", "count"),
    ("space.move_accept_ratio", "ratio"), ("space.respawns", "count"),
    ("space.respawn_s", "s"),
    *[(f"network.{m}.{arm}", unit) for arm in ARMS
      for m, unit in (("decay_s", "s"), ("strengthen_calls", "count"),
                      ("referrals", "count"))],
    ("harness.read_s", "s"), ("harness.read_rows", "count"),
    ("harness.metrics_s", "s"),
    ("serialize.write_s", "s"), ("serialize.write_bytes", "bytes"),
    ("stats.report_s", "s"), ("stats.kde_s", "s"), ("stats.fdc_s", "s"),
    ("harness.batch_s", "s"), ("cli.serial_tail_s", "s"),
    ("trace.overhead_s", "s"),
]


def merge(records: list[dict]) -> dict:
    """Fold the main and worker records of one traced operation."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    spans = []
    for rec in records:
        spans.extend(rec["spans"])
        for name, arm, calls, total, self_s in rec["totals"]:
            entry = totals[(name, arm)]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, arm, n in rec["counts"]:
            counts[(name, arm)] += n
    return {"spans": spans, "totals": totals, "counts": counts}


def _quantile(sorted_values: list[float], q: float) -> float:
    # nearest-rank quantile
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def layer_metrics(merged: dict, overhead_s: float) -> dict[str, float]:
    totals, counts = merged["totals"], merged["counts"]

    def field(name, index, arm=None):
        return sum(v[index] for (n, a), v in totals.items()
                   if n == name and (arm is None or a == arm))

    def calls(name, arm=None):
        return field(name, 0, arm)

    def total(name, arm=None):
        return field(name, 1, arm)

    def self_time(name, arm=None):
        return field(name, 2, arm)

    def count(name, arm=None):
        return sum(v for (n, a), v in counts.items()
                   if n == name and (arm is None or a == arm))

    def ratio(num, den):
        return num / den if den else 0.0

    pairs = calls("harness.run_pair")
    layouts = count("products.layouts")
    m = {
        "products.types_s": total("products.generate_type_set"),
        "products.layouts": layouts,
        "products.layouts_nonconverged": count("products.layouts_nonconverged"),
        "products.accept_ratio": ratio(count("products.types_accepted"), layouts),
        "harness.init_calls": ratio(calls("harness.init_world"), pairs),
        "harness.world_init_s": (total("harness.World.__init__")
                                 - total("products.generate_type_set")),
        "harness.prime_s": total("harness.prime_consumers"),
    }
    for arm in ARMS:
        steps = sorted(s[4] - s[3] for s in merged["spans"]
                       if s[2] == "harness.World.step" and s[5] == arm)
        m[f"harness.loop_s.{arm}"] = (self_time("harness.run", arm)
                                      + total("harness.World.step", arm))
        m[f"harness.step_ms_p50.{arm}"] = 1e3 * _quantile(steps, 0.5)
        m[f"harness.step_ms_p999.{arm}"] = 1e3 * _quantile(steps, 0.999)
        m[f"harness.step_self_s.{arm}"] = self_time("harness.World.step", arm)
    attempts = count("agents.try_begin_consumption")
    moves = count("space.move_consumer")
    m.update({
        "agents.evaluate_s": total("agents.evaluate_situations"),
        "agents.act_s": total("agents.act"),
        "agents.act_calls": calls("agents.act"),
        "agents.begin_attempts": attempts,
        "agents.begin_accept_ratio": ratio(
            count("agents.try_begin_consumption.accepted"), attempts),
        "agents.consumptions": count("agents.complete_consumption"),
        "cognition.train_calls": count("cognition.train"),
        "cognition.predict_calls": calls("cognition.predict_utility"),
        "cognition.predict_s": total("cognition.predict_utility"),
        "space.neighbor_calls": count("space.von_neumann_neighbors"),
        "space.move_calls": moves,
        "space.move_accept_ratio": ratio(count("space.move_consumer.accepted"), moves),
        "space.respawns": calls("space.respawn_product"),
        "space.respawn_s": total("space.respawn_product"),
    })
    for arm in ARMS:
        m[f"network.decay_s.{arm}"] = total("network.decay_all", arm)
        m[f"network.strengthen_calls.{arm}"] = calls("network.strengthen", arm)
        m[f"network.referrals.{arm}"] = count("network.referral", arm)
    m.update({
        "harness.read_s": total("harness.read_run_samples"),
        "harness.read_rows": count("harness.read_rows"),
        "harness.metrics_s": total("harness.run_metrics"),
        "serialize.write_s": total("serialize.atomic_write_text"),
        "serialize.write_bytes": count("serialize.write_bytes"),
        "stats.report_s": total("stats.comparison_row"),
        "stats.kde_s": total("stats.gaussian_kde"),
        "stats.fdc_s": total("stats.fdc"),
        "harness.batch_s": total("harness.batch"),
        "cli.serial_tail_s": (total("cli.cmd_experiment")
                              - total("harness.batch")),
        "trace.overhead_s": overhead_s,
    })
    assert list(m) == [name for name, _ in LAYER_METRICS]
    return m
