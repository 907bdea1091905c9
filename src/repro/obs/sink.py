"""Crash-safe streaming record sinks — durable as soon as written.

:class:`~repro.obs.trace.TraceRecorder` historically buffered every
record in memory and wrote the JSONL file only when ``recording()``
exited — so a hard crash (OOM kill, power loss on the device under
test) lost the entire trace, which is precisely the run you wanted
evidence from. The sink inverts that: each record is serialized,
written and **flushed** the moment it is produced, so the file on disk
is always a valid prefix of the run.

:class:`JsonlSink` writes one JSON object per line, the trace format
readers already consume (:mod:`repro.obs.report`). It is a context
manager, idempotent on :meth:`close`, and safe to call after close
(writes to a closed sink raise, they do not silently vanish). It holds
the only reference to its file handle and releases it on every path —
the flowcheck ``SPAN-LEAK``/``SINK-FLUSH`` rules check exactly this
contract at its call sites.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

PathLike = Union[str, Path]


class JsonlSink:
    """Append-only JSONL writer that flushes after every record.

    ``append=True`` reopens an existing file without truncating it — the
    resume path: a journal killed mid-sweep is recovered with
    :func:`recover_jsonl_records` and then extended in place.
    """

    def __init__(self, path: PathLike, append: bool = False) -> None:
        self.path = Path(path)
        self._handle = self.path.open("a" if append else "w", encoding="utf-8")
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        """Serialize one record and make it durable before returning."""
        if self._handle is None:
            raise ValueError(f"sink already closed: {self.path}")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.records_written += 1

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        """Release the handle; safe to call more than once."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Crash recovery — reading back a sink file that may have died mid-write.
#
# Flush-per-record guarantees the file is a valid prefix of the run *plus
# at most one partial trailing line* (the record being written when the
# process was killed). The reader returns the complete records and drops
# that partial tail; corruption anywhere *before* the tail is a real
# integrity failure and raises. ``truncate=True`` additionally cuts the
# file back to its last complete line so it can be reopened with
# ``append=True`` without gluing a new record onto the torn one.
# ---------------------------------------------------------------------------


def _complete_lines(path: Path, truncate: bool) -> List[str]:
    # Raw bytes, not text mode: universal-newline translation would make
    # a line torn between "\r" and "\n" look complete.
    data = path.read_bytes()
    complete, _, partial = data.rpartition(b"\n")
    if partial and truncate:
        path.write_bytes(complete + b"\n" if complete else b"")
    return complete.decode("utf-8").splitlines()


def recover_jsonl_records(
    path: PathLike, truncate: bool = False
) -> List[Dict[str, Any]]:
    """Complete records of a possibly-torn JSONL file, in write order.

    A trailing line without a newline (killed mid-write) is dropped; a
    malformed line *with* a newline after it was durably written broken,
    so it raises ``ValueError`` instead of being silently skipped.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(_complete_lines(path, truncate), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{number}: corrupt journal line ({exc})"
            ) from exc
    return records
