"""The one way the package writes a file: whole, or not at all."""

from __future__ import annotations

import contextlib
import errno
import os
from pathlib import Path
from typing import IO, Callable

from .errors import FormatError


def _sibling_tmp(path: str | Path, what: str) -> tuple[Path, Path]:
    """``path`` and a new temporary name beside it; an empty ``path`` is refused."""
    if not os.fspath(path):
        # Path("") would name the current directory.
        raise FormatError(f"cannot write {what} '': the path is empty", stage="save")
    path = Path(path)
    return path, path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"


def _save_error(what: str, path: Path, exc: Exception) -> FormatError:
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return FormatError(f"cannot write {what} {path}: {reason}", stage="save")


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
    path, tmp = _sibling_tmp(path, what)
    done = False
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
        done = True
    except (OSError, UnicodeEncodeError) as exc:
        raise _save_error(what, path, exc) from None
    finally:
        if not done:
            with contextlib.suppress(OSError):  # also when it was never created
                os.unlink(tmp)


def check_writable(path: str | Path, what: str) -> None:
    """Fail now with the ``[save]`` error that ``write_file(path, what, …)``
    would raise later when ``path`` is empty, an existing directory, or in a
    directory where its temporary file cannot be created. Leaves no file."""
    path, tmp = _sibling_tmp(path, what)
    if path.is_dir() and not path.is_symlink():  # os.replace replaces a link itself
        raise _save_error(what, path, IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR)))
    try:
        open(tmp, "xb").close()
        os.unlink(tmp)
    except OSError as exc:
        raise _save_error(what, path, exc) from None
