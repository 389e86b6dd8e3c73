"""Text formats: histogram lists, weight matrices, Gram CSV, JSON blobs.

Histogram files hold one histogram per line as comma-separated
nonnegative integers; a line whose first nonblank character is '#' is a
comment and blank lines are skipped. Weight files start with a
"mode: cost" or "mode: weight" header followed by a square block of
comma-separated reals. A real beyond the float range, one float would
read as an infinity (1e400) or as 0.0 (1e-400), is refused, so an
infinite entry is spelled "inf" and a zero one "0". An entry WeightSpec
refuses (a NaN or -inf cost, one whose weight exp(-cost) is beyond the
float range, a weight that is not finite and nonnegative) is named by
its line and field. Files are UTF-8 text whose lines end at "\n"; the
numbers are ASCII and take no "_" digit separators. `integer` and
`real` read one number by the same rules: they type the command line's
numeric options. All parse failures carry the path and 1-based line
number; a byte that is not UTF-8 is also named by its offset in the
file. A caller that also digests a file reads its bytes once with
`read_bytes` and passes them to the parser, so that the digest is of the
bytes parsed.

A Gram CSV holds one matrix row per line, each float written as its
`repr`. Each distinct 64-bit pattern is formatted once, so writing
costs one `repr` per distinct value plus a gather over the entries.
"""

from __future__ import annotations

import json
import math
from itertools import compress
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import EntryError, ParseError, ValidationError
from .histograms import Histogram
from .polytope import WeightSpec

# float reads a literal beyond its range as one of these, as it does "0" and "inf"
_EDGES = frozenset((0.0, math.inf, -math.inf))


def read_bytes(path: str | Path) -> bytes:
    """A file's bytes; a file that cannot be read is a ParseError at line 1."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(str(path), 1, f"cannot read file: {exc}") from None


def _data_lines(path: Path, data: bytes | None) -> list[tuple[int, str]]:
    data = read_bytes(path) if data is None else data
    try:
        text_blob = data.decode()
    except UnicodeDecodeError as exc:
        bad = exc.start
        raise ParseError(
            str(path),
            data.count(b"\n", 0, bad) + 1,
            f"not UTF-8 text: byte 0x{data[bad]:02x} at offset {bad}",
        ) from None
    lines = []
    for lineno, raw in enumerate(text_blob.split("\n"), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        lines.append((lineno, text))
    return lines


def _numerals(text: str, convert: Callable, kind: str) -> list:
    # int and float strip each field, but would also read digits of other
    # scripts and "_" separators: numerals are ASCII without "_"
    if text.isascii() and "_" not in text:
        fields = text.split(",")
        try:
            values = [convert(field) for field in fields]
        except ValueError:
            pass
        else:
            # one of _EDGES read from a nonzero digit before the exponent is a
            # literal beyond the float range
            for field in compress(fields, map(_EDGES.__contains__, values)):
                if set(field.lower().partition("e")[0]) & set("123456789"):
                    raise ValidationError(f"{field.strip()!r} is beyond the float range")
            return values
    raise ValueError(f"{text.strip()!r} is not {kind}")


def integer(text: str) -> int:
    """One integer numeral, as in a histogram file: the type of the integer options."""
    (value,) = _numerals(text, int, "an integer")
    return value


def real(text: str) -> float:
    """One real numeral, as in a weight file: the type of the real options."""
    (value,) = _numerals(text, float, "a real")
    return value


def _numbers(path: Path, lineno: int, text: str, convert: Callable, kind: str) -> list:
    try:
        return _numerals(text, convert, kind)
    except ValidationError as exc:
        raise ParseError(str(path), lineno, str(exc)) from None
    except ValueError:
        message = f"expected comma-separated {kind}, got {text!r}"
        raise ParseError(str(path), lineno, message) from None


def parse_histograms(path: str | Path, data: bytes | None = None) -> list[Histogram]:
    """Read the histograms of `path`, or of `data`, its bytes already read."""
    path = Path(path)
    histograms = []
    for lineno, text in _data_lines(path, data):
        counts = tuple(_numbers(path, lineno, text, int, "integers"))
        if any(v < 0 for v in counts):
            raise ParseError(str(path), lineno, f"negative count in {text!r}")
        histograms.append(Histogram(counts))
    if not histograms:
        raise ParseError(str(path), 1, "no histograms found")
    return histograms


def parse_weights(path: str | Path, data: bytes | None = None) -> WeightSpec:
    """Read a square matrix, as costs or weights by its "mode:" header.

    The header is the first data line, "mode: cost" or "mode: weight";
    a file without it is refused. `data`, when given, is the file's
    bytes already read, parsed in place of the file.
    """
    path = Path(path)
    lines = _data_lines(path, data)
    if not (lines and lines[0][1].lower().startswith("mode:")):
        raise ParseError(str(path), 1, "no 'mode:' header; cannot tell costs from weights")
    mode = lines[0][1].split(":", 1)[1].strip().lower()
    if mode not in ("cost", "weight"):
        raise ParseError(str(path), lines[0][0], f"mode must be 'cost' or 'weight', got {mode!r}")
    lines = lines[1:]
    if not lines:
        raise ParseError(str(path), 1, "no matrix rows found")
    rows = []
    for lineno, text in lines:
        rows.append(_numbers(path, lineno, text, float, "reals"))
        if len(rows[-1]) != len(lines):
            shape = f"{len(lines)} rows but this row has {len(rows[-1])} entries"
            raise ParseError(str(path), lineno, f"matrix must be square: {shape}")
    try:
        return (WeightSpec.from_cost if mode == "cost" else WeightSpec.from_weight)(rows)
    except EntryError as exc:
        i, j = exc.entry
        lineno, text = lines[i]
        raise ParseError(str(path), lineno, f"{text.split(',')[j].strip()!r}: {exc}") from None


def write_gram_csv(path: str | Path, values: np.ndarray) -> None:
    """One matrix row per line; floats via repr so reruns are byte-identical.

    Each distinct 64-bit pattern is formatted once and its text reused
    wherever the pattern occurs: at the mirror entries of a Gram matrix
    and at every repeated kernel value. Patterns, not values, are the
    key, so -0.0 keeps its own text beside 0.0.
    """
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"a Gram CSV holds a 2-D matrix, not {values.ndim}-D")
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    # numpy releases differ in the inverse's shape: flat or the input's
    rows = texts[inverse.reshape(values.shape)].tolist()
    Path(path).write_text("\n".join(map(",".join, rows)) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite float raises ValueError instead of being written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
