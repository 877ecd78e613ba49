"""Small filesystem helpers shared across the package and harnesses."""

from __future__ import annotations

import os
import tempfile


def fsync_dir(directory: str) -> bool:
    """Best-effort fsync of a directory; whether it succeeded.

    After ``os.replace`` the *rename itself* lives in the directory
    inode — a crash before the directory entry reaches disk can forget
    a file whose contents were durably written.  Some filesystems (and
    platforms) refuse ``open``/``fsync`` on directories, so failure is
    reported, never raised.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes, durable: bool = True) -> str:
    """Binary twin of :func:`atomic_write_text`; returns ``path``.

    Same temp-file + ``os.replace`` discipline and the same
    ``durable`` fsync semantics, for payloads that are already bytes
    (every frame the content store writes).
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=".tmp-", suffix=os.path.splitext(path)[1], dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        if durable:
            fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str, text: str, durable: bool = True) -> str:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Safe under concurrent writers — parallel sweep workers and
    simultaneous benchmark runs can never leave a half-written file
    behind.  Returns ``path``.

    ``durable=True`` (the default) additionally fsyncs the temp file
    *before* the rename, and the containing directory (best-effort)
    after it.  Without the file fsync, ``os.replace`` only guarantees
    atomicity against concurrent *readers*: a power loss or SIGKILL
    after the rename but before the kernel flushed the data pages could
    leave ``path`` pointing at an empty or torn file — exactly the
    "atomically written" cache entry the daemon's warm-restart path
    would then try to load.  Callers writing genuinely disposable
    scratch output may pass ``durable=False`` to skip both syncs.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=".tmp-", suffix=os.path.splitext(path)[1], dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        if durable:
            fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path
