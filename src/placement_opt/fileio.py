"""The one way outputs reach disk: whole-file replacement."""

from __future__ import annotations

import csv
import io
import os


def write_atomic(path, text: str) -> None:
    """Write text to a temp file next to path, then os.replace it over path.

    A reader sees the old file or the new one, never a partial write. Text is
    written without newline translation.
    """
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows) -> None:
    """Write dict rows as CSV with a header line (csv module defaults, CRLF)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())
