"""One benchmark operation, run in a fresh interpreter.

    python3 benchmark/ops.py setup CONFIG|- [SEED]
        import the CLI, resolve the config, and with SEED build the first
        world (`init_world`); nothing is written
    python3 benchmark/ops.py pair SEED OUT_DIR
        one default `run_pair`, then both run CSVs into OUT_DIR
    python3 benchmark/ops.py cli ARGS...
        `consumerlab ARGS...`

Prefix an operation with `--trace DIR OP_ID` to run it under the timing
wrappers of tracer.py; the records go to DIR/main.json (and, from forked
workers, DIR/worker-<pid>.jsonl). The program is imported from PYTHONPATH.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys


def setup(config_path: str, seed: str | None = None) -> int:
    from consumerlab import cli, harness
    config = cli.build_config(None if config_path == "-" else config_path, {})
    problems = config.validate()
    if problems:
        raise harness.ConfigError(problems)
    if seed is not None:
        harness.init_world(config.with_overrides(seed=int(seed)))
    return 0


def pair(seed: str, out_dir: str) -> int:
    from consumerlab import harness
    result = harness.run_pair(int(seed), harness.RunConfig())
    os.makedirs(out_dir, exist_ok=True)
    for arm in (result.social, result.nonsocial):
        harness.write_run_csv(arm, os.path.join(
            out_dir, harness.run_file_name(arm.config.seed, arm.config.social)))
    return 0


def run_cli(*args: str) -> int:
    from consumerlab import cli
    return cli.main(list(args))


OPERATIONS = {"setup": setup, "pair": pair, "cli": run_cli}


def traced(trace_dir: str, op_id: str, op, args) -> int:
    from tracer import Tracer
    tracer = Tracer(op_id, trace_dir)
    tracer.install()
    try:
        tracer.enter("bench.op", True)
        try:
            code = op(*args)
        finally:
            tracer.exit()
    finally:
        restored = tracer.restore()
    records = tracer.records()
    records["restored"] = restored
    records["start_method"] = multiprocessing.get_start_method()
    with open(os.path.join(trace_dir, "main.json"), "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return code if restored else 3


def main(argv: list[str]) -> int:
    if argv[:1] == ["--trace"]:
        trace_dir, op_id, name, *args = argv[1:]
        return traced(trace_dir, op_id, OPERATIONS[name], args)
    name, *args = argv
    return OPERATIONS[name](*args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
