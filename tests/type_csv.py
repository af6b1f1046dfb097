"""Reading the type-set CSVs that `gen-types` and `landscape` write, for
checks on their contents."""

import numpy as np


def read_type_rows(path: str) -> list[dict]:
    """Read type rows back (utility and signature as exact floats). Lines
    starting with '#' are skipped."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            row = dict(zip(header, parts))
            rows.append({
                "type_id": int(row["type_id"]),
                "edge_count": int(row["edge_count"]),
                "utility": float(row["utility"]),
                "signature": np.array([float(row[f"s{i}"]) for i in range(6)]),
                "extra": {k: v for k, v in row.items()
                          if k not in {"type_id", "edge_count", "utility"}
                          and not (len(k) == 2 and k[0] == "s")},
            })
    return rows
