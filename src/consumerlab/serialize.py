"""Shared determinism plumbing: exact float formatting and summation, and
atomic file writes.

All files are written with '.' decimals, LF line endings and no locale
dependence so that repeated runs produce byte-identical output.
"""

from __future__ import annotations

import os
import tempfile


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trips exactly)."""
    return "%.17g" % x


def left_sum(values) -> float:
    """Left-to-right float sum from 0.0, as `sum` adds floats before Python
    3.12; from 3.12 on `sum` compensates and can round differently."""
    total = 0.0
    for value in values:
        total += value
    return total


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list[str]],
              trailer: str | None = None) -> None:
    """Write a simple comma-separated file atomically.

    `trailer`, when given, is appended verbatim as a final line (used for
    '#'-prefixed summary lines that readers skip).
    """
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    atomic_write_text(path, "\n".join(lines) + "\n")
