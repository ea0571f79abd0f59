"""Crash-tolerant helpers for the append-only JSONL stores.

Both persistent stores (:class:`~repro.records.RecordStore` and the
:class:`~repro.serving.registry.ScheduleRegistry` shards) append one JSON
object per line with a single ``write`` + ``flush``.  A process killed inside
that write leaves a *torn tail*: a strict prefix of the final line, almost
never valid JSON and usually without a trailing newline.  Merely *skipping*
that line at load time is not enough — the stores append with ``open("a")``,
so the next committed record would concatenate onto the torn prefix and one
*good* entry would be corrupted.  :func:`repair_torn_tail` therefore
physically truncates the torn tail (and warns), restoring the one-object-
per-line invariant before any parsing or appending happens.

A complete final line that merely lacks its newline is valid JSON and is left
alone; mid-file corruption is *not* touched here — that is a data-integrity
question the stores answer via their ``strict`` policy.

:func:`append_line` is the live counterpart: both stores append through it,
and a write or flush that fails with an ``OSError`` (e.g. ENOSPC after half
a line) is truncated back to the pre-append length before the error
propagates, so the next append starts on a clean line.

:func:`read_lines` is the one reader: record-log loading, the registry's
shard scan and registry imports all parse their lines through it, so a
corrupt line (not UTF-8, not a JSON object, or rejected by the store's
parser) is treated alike everywhere: skipped, or with ``strict`` a
``ValueError`` naming ``path:line``.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import IO, AnyStr, Callable, Iterator, Optional, Tuple, TypeVar

__all__ = ["append_line", "read_lines", "repair_torn_tail"]

T = TypeVar("T")

#: How many bytes of tail to pull in per backwards step while hunting for the
#: final newline.  A torn line is one JSON object (a few hundred bytes), so
#: the first chunk almost always suffices; the loop only matters for
#: pathological single-line files.
_TAIL_CHUNK = 64 * 1024

_WHITESPACE = b" \t\r\n"


def _read_tail(path: Path) -> tuple[int, bytes, int]:
    """``(size, tail, tail_start)`` where ``tail`` spans the final line.

    Reads backwards in :data:`_TAIL_CHUNK` steps until the buffer contains a
    newline strictly before the (whitespace-stripped) final line, so repair
    cost is O(final line), not O(file) — a million-entry shard must not be
    slurped whole just to check its last line.
    """
    with path.open("rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        buf = b""
        pos = size
        while pos > 0:
            step = min(_TAIL_CHUNK, pos)
            pos -= step
            fh.seek(pos)
            buf = fh.read(step) + buf
            stripped = buf.rstrip(_WHITESPACE)
            if not stripped and pos > 0:
                continue
            if stripped.rfind(b"\n") >= 0 or pos == 0:
                break
        return size, buf, pos


def repair_torn_tail(path: Path, label: str = "JSONL file") -> int:
    """Truncate a torn (partially written) final line off a JSONL file.

    Returns the number of bytes removed (0 when the file ends cleanly or the
    final line is syntactically valid JSON).  Emits a ``UserWarning`` naming
    the file when a tail is removed: the entry it belonged to was never
    durably committed, so dropping it is the only consistent recovery.
    """
    path = Path(path)
    try:
        size, buf, buf_start = _read_tail(path)
    except FileNotFoundError:
        return 0
    stripped = buf.rstrip(_WHITESPACE)
    if not stripped:
        return 0
    start = buf_start + stripped.rfind(b"\n") + 1
    tail = stripped[start - buf_start :]
    try:
        json.loads(tail.decode("utf-8", errors="replace"))
        return 0
    except json.JSONDecodeError:
        pass
    removed = size - start
    with path.open("rb+") as fh:
        fh.truncate(start)
    warnings.warn(
        f"{label} {path} ended in a torn line; truncated {removed} partial "
        "bytes (the interrupted append was never durably committed)",
        UserWarning,
        stacklevel=2,
    )
    return removed


def append_line(
    fh: IO[AnyStr], line: AnyStr, fault: Optional[Callable[[], None]] = None
) -> int:
    """Append one complete ``line`` at the end of ``fh``; returns its offset.

    The caller holds the store's lock and updates its in-memory state only
    after this returns: on an ``OSError`` the file is truncated back to the
    returned offset (best effort) and the error re-raised, so memory and disk
    still agree and a retry appends a clean line instead of concatenating
    onto a partial one.  ``fault`` is the store's fault-injection poll, run
    after the offset is pinned; any other exception it raises (a simulated
    crash) propagates without rollback, like a real process death.
    """
    # "a" mode leaves the initial position platform-defined; pin it to the
    # end so the rollback offset is trustworthy.
    offset = fh.seek(0, os.SEEK_END)
    try:
        if fault is not None:
            fault()
        fh.write(line)
        fh.flush()
    except OSError:
        try:
            fh.truncate(offset)
        except OSError:
            pass  # the disk is truly wedged; load-time repair takes over
        raise
    return offset


def read_lines(
    blob: bytes,
    parse: Callable[[dict], T],
    path: object,
    what: str,
    strict: bool = False,
    base_offset: int = 0,
    lineno_base: int = 0,
) -> Iterator[Tuple[int, int, Optional[T]]]:
    """Yield ``(offset, length, item)`` for every non-blank line of ``blob``.

    ``item`` is ``parse(obj)`` of the line's JSON object, or ``None`` for a
    corrupt line: one that is not UTF-8, not a JSON object, or that
    ``parse`` rejects with ``ValueError`` / ``KeyError`` / ``TypeError``.
    With ``strict`` a corrupt line raises ``ValueError("corrupted <what> at
    <path>:<line>: ...")`` instead.  ``offset`` and ``length`` locate the
    raw line (newline included) in the file whose bytes from
    ``base_offset`` on are ``blob``; ``lineno_base`` is the number of lines
    before it.
    """
    pos = base_offset
    for lineno, raw in enumerate(blob.splitlines(keepends=True), start=lineno_base + 1):
        offset = pos
        pos += len(raw)
        text = raw.strip()
        if not text:
            continue
        try:
            data = json.loads(text.decode("utf-8"))
            if not isinstance(data, dict):
                raise ValueError("line is not a JSON object")
            item: Optional[T] = parse(data)
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise ValueError(f"corrupted {what} at {path}:{lineno}: {exc}") from exc
            item = None
        yield offset, len(raw), item
