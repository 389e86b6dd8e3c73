"""Text formats: histogram lists, weight matrices, Gram CSV, JSON blobs.

Histogram files hold one histogram per line as comma-separated
nonnegative integers; a line whose first nonblank character is '#' is a
comment and blank lines are skipped. Weight files optionally start with
a "mode: cost" or "mode: weight" header followed by a square block of
comma-separated reals. All parse failures carry the path and 1-based
line number.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError
from .histograms import Histogram
from .polytope import WeightSpec


def _data_lines(path: Path) -> list[tuple[int, str]]:
    try:
        text_blob = path.read_text()
    except OSError as exc:
        raise ParseError(str(path), 1, f"cannot read file: {exc}") from None
    lines = []
    for lineno, raw in enumerate(text_blob.splitlines(), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        lines.append((lineno, text))
    return lines


def parse_histograms(path: str | Path) -> list[Histogram]:
    path = Path(path)
    histograms = []
    for lineno, text in _data_lines(path):
        fields = [f.strip() for f in text.split(",")]
        try:
            counts = tuple(int(f) for f in fields)
        except ValueError:
            raise ParseError(
                str(path), lineno, f"expected comma-separated integers, got {text!r}"
            ) from None
        if any(v < 0 for v in counts):
            raise ParseError(str(path), lineno, f"negative count in {text!r}")
        histograms.append(Histogram(counts))
    if not histograms:
        raise ParseError(str(path), 1, "no histograms found")
    return histograms


def parse_weights(path: str | Path, mode: str | None = None) -> WeightSpec:
    """Read a square matrix, resolving cost-vs-weight from header and/or flag.

    A "mode:" header in the file wins; a flag passed alongside must
    agree with it. Headerless files require the flag.
    """
    path = Path(path)
    lines = _data_lines(path)
    header_mode = None
    if lines and lines[0][1].lower().startswith("mode:"):
        header_mode = lines[0][1].split(":", 1)[1].strip().lower()
        if header_mode not in ("cost", "weight"):
            raise ParseError(
                str(path), lines[0][0], f"mode must be 'cost' or 'weight', got {header_mode!r}"
            )
        lines = lines[1:]
    if header_mode and mode and header_mode != mode:
        raise ParseError(
            str(path), 1, f"file says 'mode: {header_mode}' but --weights-mode={mode}"
        )
    resolved = header_mode or mode
    if resolved is None:
        raise ParseError(
            str(path), 1, "no 'mode:' header and no --weights-mode flag; cannot "
            "tell costs from weights"
        )
    if not lines:
        raise ParseError(str(path), 1, "no matrix rows found")
    rows = []
    for lineno, text in lines:
        fields = [f.strip() for f in text.split(",")]
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise ParseError(
                str(path), lineno, f"expected comma-separated reals, got {text!r}"
            ) from None
        if len(rows[-1]) != len(lines):
            raise ParseError(
                str(path),
                lineno,
                f"matrix must be square: {len(lines)} rows but this row has "
                f"{len(rows[-1])} entries",
            )
    matrix = np.array(rows)
    if resolved == "cost":
        return WeightSpec.from_cost(matrix)
    return WeightSpec.from_weight(matrix)


def format_table_row(entries: Sequence[Sequence[int]]) -> str:
    """Flatten a table row-major into one CSV line."""
    return ",".join(str(v) for row in entries for v in row)


def write_gram_csv(path: str | Path, values: np.ndarray) -> None:
    """One matrix row per line; floats via repr so reruns are byte-identical.

    A square matrix bitwise equal to its transpose, as `build_gram`
    makes every Gram matrix, formats each upper-triangle entry once and
    reuses its text for the mirror entry.
    """
    values = np.asarray(values, dtype=float)
    rows = values.tolist()
    if values.ndim == 2 and values.shape[0] == values.shape[1] and (
        values.view(np.int64) == values.T.view(np.int64)
    ).all():
        upper = [list(map(repr, row[p:])) for p, row in enumerate(rows)]
        lines = [
            ",".join([upper[q][p - q] for q in range(p)] + upper[p]) for p in range(len(rows))
        ]
    else:
        lines = [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_json(path: str | Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite float raises ValueError instead of being written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
