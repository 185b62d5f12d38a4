"""Plain-text and PGM serialization for angular metric grids.

All writers are deterministic: fixed float formatting, fixed key order.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def write_csv_matrix(path, matrix: np.ndarray, header: str | None = None) -> None:
    """One row of comma-separated values per theta_s bin."""
    m = np.asarray(matrix, dtype=float)
    lines = []
    if header:
        lines.append("# " + header)
    for row in m:
        lines.append(",".join(format(v, ".12g") for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_matrix(path) -> np.ndarray:
    """The matrix of ``write_csv_matrix``; a non-number or a ragged row is a FormatError."""
    rows = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise FormatError(f"{path}: malformed input (line {n}: {exc})") from None
            if len(rows[-1]) != len(rows[0]):
                raise FormatError(f"{path}: malformed input (line {n} holds {len(rows[-1])} "
                                  f"values, the first row {len(rows[0])})")
    return np.asarray(rows)


def write_pgm(path, matrix: np.ndarray) -> None:
    """8-bit binary PGM heatmap; values clipped to [0, 1], NaN -> 0."""
    m = np.nan_to_num(np.asarray(matrix, dtype=float), nan=0.0)
    pixels = np.rint(np.clip(m, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())
