"""Shared determinism plumbing: exact float formatting and summation, a
bounded integer draw equal to numpy's, streamed atomic writes, UTF-8 reads.

All files are written with '.' decimals, LF line endings and no locale
dependence so that repeated runs produce byte-identical output.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from itertools import chain
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trips exactly)."""
    return "%.17g" % x


def fmt_optional(x: float | None) -> str:
    """`fmt_float`, or "undefined" for a value that does not exist."""
    return "undefined" if x is None else fmt_float(x)


def left_sum(values) -> float:
    """Left-to-right float sum from 0.0, as `sum` adds floats before Python
    3.12; from 3.12 on `sum` compensates and can round differently."""
    total = 0.0
    for value in values:
        total += value
    return total


def draw_below(rng: np.random.Generator, k: int) -> int:
    """`int(rng.integers(0, k))`, draw for draw: the same integer, and `rng`
    left in the same state.

    For 2 <= k < 2**32 numpy runs Lemire's bounded draw on 32-bit words
    (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    29(1), 2019); this runs the same rejection loop on the generator's own
    `next_uint32`, which shares numpy's buffered half-word, at a fraction
    of the cost of a `Generator.integers` call. k = 1 takes no draw, as in
    numpy; every other k goes to `rng.integers` itself.
    """
    if k == 1:
        return 0
    if not 0 < k < 0x100000000:
        return int(rng.integers(0, k))
    bits = rng.bit_generator.ctypes
    m = bits.next_uint32(bits.state) * k
    if m & 0xFFFFFFFF < k:
        threshold = (0x100000000 - k) % k
        while m & 0xFFFFFFFF < threshold:
            m = bits.next_uint32(bits.state) * k
    return m >> 32


def atomic_write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the strings of `chunks` to `path` via a temp file + rename in
    the same directory; the file gets the mode `open(path, "w")` gives."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # "x": a new file (a taken name fails, never overwrites), mode 0o666 & ~umask
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.csv")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], lines: Iterable[str],
              trailer: str | None = None) -> None:
    """Stream a CSV file to `path` atomically, one LF-ended line each: the
    header, every string of `lines` (a row, its cells joined by commas; a
    generator is read as it is written), then `trailer` verbatim if given."""
    tail = () if trailer is None else (trailer,)
    atomic_write_text(path, (line + "\n" for line in
                             chain((",".join(header),), lines, tail)))


@contextmanager
def open_utf8(path: str):
    """Open `path` to read UTF-8 text; invalid bytes raise ValueError at file:line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        # bytes.splitlines breaks lines where text mode does: at LF, CR, CRLF
        for lineno, line in enumerate(data.splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}:{lineno}: not UTF-8 text "
                                 f"({err.reason})") from None
        raise
