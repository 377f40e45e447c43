"""How an artifact file is written, whole or not at all (``writing``), how a
run clears an earlier run's files (``remove``), and how a reader reports a
bad one: as one ValueError that names the file (``reading``)."""

from __future__ import annotations

import contextlib
import csv
import os
import zipfile
from pathlib import Path as FilePath

import numpy as np


@contextlib.contextmanager
def writing(file: FilePath | str, mode: str = "w", **open_kwargs):
    """A handle as ``open`` gives on ``<file>.<pid>.tmp``, which replaces ``file`` when the
    block ends. If the block raises, the temp file goes and ``file`` is left as it was. A
    killed process may leave the temp file, which no reader opens; nothing is fsynced."""
    temp = f"{os.fspath(file)}.{os.getpid()}.tmp"
    try:
        with open(temp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(temp, file)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def remove(*files: FilePath | str) -> None:
    """Delete each of ``files`` that exists: the files a run would write, so one
    that fails leaves no earlier run's file under a name it owns."""
    for file in files:
        FilePath(file).unlink(missing_ok=True)


def write_text(file: FilePath | str, text: str) -> None:
    with writing(file, encoding="utf-8") as fh:
        fh.write(text)


def write_csv(file: FilePath | str, header: list[str], rows) -> None:
    with writing(file, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_npz(file: FilePath | str, arrays: dict[str, np.ndarray]) -> None:
    """One uncompressed ``.npz``, written to a handle: np.savez appends ".npz" to a name without it."""
    with writing(file, "wb") as fh:
        np.savez(fh, **arrays)


@contextlib.contextmanager
def reading(file: FilePath | str, prefix: str = ""):
    """Raise what the block raises on a bad ``file`` as one ValueError,
    ``"{file}: {prefix}missing key 'k'"`` or ``"{file}: {prefix}{error}"``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{file}: {prefix}missing key {exc}") from exc
    # zipfile raises NotImplementedError for a garbled compression method or version;
    # UnicodeDecodeError and json.JSONDecodeError are ValueErrors.
    except (OSError, EOFError, NotImplementedError, OverflowError, TypeError, ValueError, csv.Error,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"{file}: {prefix}{exc}") from exc


def read_csv(file: FilePath | str, header: list[str]) -> list[list[str]]:
    """The rows after the header of a UTF-8 CSV file whose header is ``header``."""
    with open(file, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [header]:
        raise ValueError(f"expected header {','.join(header)!r}")
    return rows[1:]


def json_floats(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array. A string,
    a boolean or a null, which a saved float never is, raises TypeError."""
    array = np.array(value, dtype=float)
    for x in np.array(value, dtype=object).flat:
        if type(x) not in (int, float):
            raise TypeError(f"{x!r} ({type(x).__name__}) is not a number")
    return array


def json_int(doc: dict, key: str) -> int:
    """``doc[key]``, which must be a JSON integer: 1.5, "7" and true are not."""
    number = int(doc[key])  # its error names an infinite or NaN value
    if type(doc[key]) is not int:
        raise ValueError(f"{key} {doc[key]!r} is not an integer")
    return number
