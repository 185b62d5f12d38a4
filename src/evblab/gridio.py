"""Plain-text and PGM exports of angular metric grids; no stage reads them back.

All writers are deterministic: fixed float formatting, fixed key order.
"""

from __future__ import annotations

import numpy as np


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


def write_pgm(path, matrix: np.ndarray) -> None:
    """8-bit binary PGM heatmap; values clipped to [0, 1], NaN -> 0."""
    m = np.nan_to_num(np.asarray(matrix, dtype=float), nan=0.0)
    pixels = np.rint(np.clip(m, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())
