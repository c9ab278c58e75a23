"""The on-disk dialect of every pipeline artifact; nothing else opens one.

A table is UTF-8 lines of tab-separated cells under one header row (the
KG triples file has none). A float cell is ``repr(float(v))``, which
reads back exactly, and any other cell ``str(v)``. A float matrix with
one id per row (embeddings, pair features) is two ``.npy`` arrays in one
file: the float64 matrix, then the UTF-8 ids joined by newlines as
uint8. A JSON document is indented by 2, has sorted keys and ends with
a newline.
"""

from __future__ import annotations

import itertools
import json
import zipfile
from typing import Iterable, Iterator, Sequence

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


def read_tsv(path, width: int | None = None,
             header: bool = True) -> Iterator[list[str]]:
    """Yield the cells of each line, the header row first. Each row must
    have ``width`` cells, by default as many as the header; another count
    raises IntegrityError naming the line, and bytes that are not UTF-8
    raise it naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = iter(fh)
            if header:  # read from an empty file too: one empty cell
                first = fh.readline()
                width = width or len(first.split("\t"))
                lines = itertools.chain([first], fh)
            for lineno, line in enumerate(lines, start=1):
                cells = line.rstrip("\n").split("\t")
                if len(cells) != width:
                    raise IntegrityError(f"{path}, line {lineno}: expected {width} "
                                         f"cells, found {len(cells)}")
                yield cells
        except UnicodeDecodeError as err:
            raise IntegrityError(f"{path}: not UTF-8: {err}") from None


def write_matrix(path, ids: Sequence[str], matrix) -> None:
    """One file: the float64 matrix, then its row ids as one uint8 array
    of their UTF-8 bytes joined by newlines, each saved by ``np.save``."""
    joined = np.frombuffer("\n".join(ids).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(matrix, dtype=np.float64), allow_pickle=False)
        np.save(fh, joined, allow_pickle=False)


def read_matrix(path, cells: int = 1) -> tuple[list, np.ndarray]:
    """The row ids and the matrix `write_matrix` saved, each id split at
    tabs into ``cells`` non-empty cells (a tuple if ``cells`` > 1). A
    damaged file, other arrays, a non-finite value or ids that do not fit
    the rows raise IntegrityError naming the file."""
    with open(path, "rb") as fh:
        try:
            arrays = [np.load(fh, allow_pickle=False) for _ in range(2)]
        except (EOFError, ValueError, zipfile.BadZipFile) as err:
            raise IntegrityError(f"{path}: not a matrix file: {err}") from None
        if fh.read(1):
            raise IntegrityError(f"{path}: bytes follow the ids")
    found = [(str(getattr(a, "dtype", None)), getattr(a, "ndim", None)) for a in arrays]
    if found != [("float64", 2), ("uint8", 1)]:
        raise IntegrityError(f"{path}: expected a 2-D float64 matrix and 1-D uint8 "
                             f"ids, found (dtype, ndim) {found}")
    matrix, joined = arrays
    try:
        ids = joined.tobytes().decode("utf-8").split("\n") if joined.size or len(matrix) else []
    except UnicodeDecodeError as err:
        raise IntegrityError(f"{path}: the ids are not UTF-8: {err}") from None
    if len(ids) != len(matrix):
        raise IntegrityError(f"{path}: {len(ids)} ids for {len(matrix)} rows")
    keys = [i.split("\t") for i in ids]
    for row, key in enumerate(keys, start=1):
        if len(key) != cells or not all(key):
            raise IntegrityError(f"{path}, row {row}: expected {cells} non-empty "
                                 f"id cells, found {key!r}")
    finite = np.isfinite(matrix).all(axis=-1)
    if not finite.all():
        raise IntegrityError(f"{path}, row {1 + int(np.argmin(finite))}: values must be finite")
    return (ids if cells == 1 else list(map(tuple, keys))), matrix


def _json_default(value):
    if isinstance(value, np.generic):  # a numpy scalar hyperparameter
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path):
    """The document in ``path``; bytes that are not UTF-8 JSON raise
    IntegrityError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # JSONDecodeError or UnicodeDecodeError
            raise IntegrityError(f"{path}: not UTF-8 JSON: {err}") from None
