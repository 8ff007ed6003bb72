"""The one way the package writes a file: whole, or not at all."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Callable

from .errors import FormatError


def write_file(
    path: str | Path, what: str, write: Callable[[IO], None], *, binary: bool = False
) -> None:
    """Call ``write`` on a new sibling temporary file, then ``os.replace`` it over ``path``.

    The file is opened like a plain ``open`` (permissions follow the umask;
    text is UTF-8, newlines untranslated). On failure ``path`` keeps its old
    bytes, the temporary file is removed, and an ``OSError`` or
    ``UnicodeEncodeError`` becomes ``[save] cannot write <what> <path>: …``.
    Nothing is fsynced: an exception never truncates ``path``; a crash may.
    An empty ``path`` is refused before anything is created.
    """
    if not os.fspath(path):
        # Path("") would name the current directory.
        raise FormatError(f"cannot write {what} '': the path is empty", stage="save")
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    done = False
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
        done = True
    except (OSError, UnicodeEncodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise FormatError(f"cannot write {what} {path}: {reason}", stage="save") from None
    finally:
        if not done:
            with contextlib.suppress(OSError):  # also when it was never created
                os.unlink(tmp)
