"""CSV matrix/vector I/O and atomic file writes.

Format: comma-separated values, one matrix row per line, no header unless
requested.  Values are written with 17 significant digits so that
write-read round trips are exact for float64.
"""

import os
import tempfile

import numpy as np


class CsvFormatError(ValueError):
    """Malformed CSV; carries the 1-based row and column of the first offense."""

    def __init__(self, path, row, col, detail):
        self.path = path
        self.row = row
        self.col = col
        super().__init__(f"{path}: row {row}, column {col}: {detail}")


def read_matrix(path, header=False):
    """Read a dense matrix from CSV; raises CsvFormatError on bad cells.

    Blank lines are skipped, but errors count them in the row number.
    Each row is converted by one ``np.array(fields, dtype=float)``, which
    parses every string exactly as ``float()`` does; a ragged row, an
    unparsable cell or a non-finite value is reported at its first offense.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    start = 1 if header else 0
    rows, width = [], None
    for i, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise CsvFormatError(path, i, len(fields) + 1,
                                 f"expected {width} fields, got {len(fields)}")
        try:
            row = np.array(fields, dtype=float)
        except ValueError:
            row = None
        if row is None or not np.isfinite(row).all():
            # name the first bad cell of this row
            for j, f in enumerate(fields, start=1):
                try:
                    v = float(f)
                except ValueError:
                    raise CsvFormatError(path, i, j, f"not a number: {f.strip()!r}")
                if not np.isfinite(v):
                    raise CsvFormatError(path, i, j, f"non-finite value {f.strip()!r}")
        rows.append(row)
    if not rows:
        raise CsvFormatError(path, 1, 1, "empty file")
    return np.array(rows)


def read_vector(path, header=False):
    """Read a vector: a single CSV column or a single row."""
    M = read_matrix(path, header=header)
    if M.shape[1] == 1:
        return M[:, 0]
    if M.shape[0] == 1:
        return M[0, :]
    raise CsvFormatError(path, 1, 1,
                         f"expected a vector, got shape {M.shape}")


def format_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in M) + "\n"


def atomic_write_text(path, text):
    """Write text to path via a same-directory temp file and atomic rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".musel-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_matrix(path, M):
    atomic_write_text(path, format_matrix(M))


def write_vector(path, v):
    v = np.asarray(v, dtype=float).reshape(-1, 1)
    write_matrix(path, v)
