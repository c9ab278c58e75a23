"""The on-disk dialect of every pipeline artifact; nothing else opens one.

A table is UTF-8 lines of tab-separated cells under one header row (the
KG triples file has none). A float cell is ``repr(float(v))``, which
reads back exactly, and any other cell ``str(v)``. A JSON document is
indented by 2, has sorted keys and ends with a newline.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import IntegrityError


def _line(cells: Sequence) -> str:
    return "\t".join([repr(float(v)) if isinstance(v, float) else str(v)
                      for v in cells]) + "\n"


def write_tsv(path, header: Sequence | None, rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(_line(header))
        fh.writelines(map(_line, rows))


def read_tsv(path, width: int | Callable[[list[str]], int] = len,
             header: bool = True) -> Iterator[list[str]]:
    """Yield the cells of each line, the header row first. Each later row
    must have ``width`` cells, or ``width(header)``: by default as many
    as the header. Another count raises IntegrityError naming the line."""
    with open(path, encoding="utf-8") as fh:
        if header:
            cells = fh.readline().rstrip("\n").split("\t")
            yield cells
            width = width(cells) if callable(width) else width
        for lineno, line in enumerate(fh, start=2 if header else 1):
            cells = line.rstrip("\n").split("\t")
            if len(cells) != width:
                raise IntegrityError(f"{path}, line {lineno}: expected {width} "
                                     f"cells, found {len(cells)}")
            yield cells


def read_float_table(path, keys: int, width: int | Callable[[list[str]], int] = len
                     ) -> tuple[list[str], list[list[str]], np.ndarray]:
    """The header, the first ``keys`` cells of each later row, and the
    float64 matrix of the remaining cells. A cell that is not a finite
    float raises IntegrityError naming its line."""
    rows = read_tsv(path, width)
    ids, values, lineno = [], [], 1
    try:
        header = next(rows)  # a callable width parses it
        for lineno, cells in enumerate(rows, start=2):
            ids.append(cells[:keys])
            values.append(list(map(float, cells[keys:])))
    except ValueError as err:
        raise IntegrityError(f"{path}, line {lineno}: {err}") from None
    matrix = np.array(values, dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=-1)
    if not finite.all():
        raise IntegrityError(f"{path}, line {2 + int(np.argmin(finite))}: "
                             "values must be finite")
    return header, ids, matrix


def _json_default(value):
    if isinstance(value, np.generic):  # a numpy scalar hyperparameter
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
