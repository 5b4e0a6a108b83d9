"""Write-ahead journal of one segment manager's policy-state transitions.

The journal is the durability half of crash-consistent manager recovery.
Every tracked manager owns one, and every policy-state transition the
manager makes (frames granted or surrendered, pages placed, evictions,
adoption) is appended to it as one CRC-framed ``mgr.*`` record
*after* the mutation it describes.  It holds only what a warm restart
replays (:meth:`repro.managers.base.GenericSegmentManager.replay_record`),
and only back to the manager's newest good checkpoint: the checkpoint
store trims everything older.

Framing is ``[length:4][crc32:4][payload]`` per record, payload being the
:func:`repro.verify.digest.canonical_encode` of a plain-data dict.  A
torn tail (a crash mid-append, or the chaos injector's ``journal_tear``)
is *detected* by the framing --- a short or CRC-mismatching frame stops
decoding --- and truncated rather than replayed, exactly like a database
WAL discards its torn last page.  A tear that removes only whole frames
leaves fewer records than the positions the log holds
(``position - first``), and a warm restart counts that as torn too.

Records are plain data on purpose: integers, strings, and lists only, so
``canonical_encode`` round-trips through ``json.loads`` untouched.

:data:`NULL_JOURNAL` is the zero-overhead off mode, following the
``NULL_TRACER``/``NULL_INJECTOR`` discipline: every append site guards on
``journal.enabled``, so an un-instrumented run allocates nothing.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.verify.digest import canonical_encode

#: one record frame: payload length, then the payload's CRC-32
FRAME_HEADER = struct.Struct(">II")


class NullJournal:
    """The do-nothing journal installed when recovery is off."""

    __slots__ = ()

    enabled = False
    position = 0

    def append(self, kind: str, **fields) -> int:
        """Discard the record (recovery is off); always position 0."""
        return 0


#: the shared no-op instance (every manager's default)
NULL_JOURNAL = NullJournal()


class RecoveryJournal:
    """An append-only, CRC-framed record log (in-memory byte buffer)."""

    enabled = True

    def __init__(self) -> None:
        self._buf = bytearray()
        #: records appended so far (the next record's position)
        self.position = 0
        #: position of the oldest record held (older ones were trimmed)
        self.first = 0
        #: bytes dropped as a torn tail across all decodes
        self.truncated_bytes = 0
        self._hooks: list = []

    @property
    def size_bytes(self) -> int:
        return len(self._buf)

    def on_append(self, hook) -> None:
        """Subscribe ``hook(position, record)`` after every append.

        The checkpoint store rides here: because records land *after* the
        mutation they describe, a checkpoint taken inside the hook is
        consistent with the journal prefix up to and including it.
        """
        self._hooks.append(hook)

    def append(self, kind: str, **fields) -> int:
        """Frame and append one record; returns its position."""
        record: dict = {"kind": kind, **fields}
        payload = canonical_encode(record).encode()
        self._buf += FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
        self._buf += payload
        position = self.position
        self.position += 1
        for hook in self._hooks:
            hook(position, record)
        return position

    def trim(self) -> None:
        """Drop every held record: a checkpoint taken now covers them."""
        self._buf.clear()
        self.first = self.position

    def tear_tail(self, n_bytes: int) -> int:
        """Chaos choke point: chop bytes off the tail (a torn write).

        Returns the number of bytes actually removed.  Decoding after a
        tear stops at the damaged frame, so the records it covered are
        lost --- the recovery auditor reconciles the difference.
        """
        n = min(max(n_bytes, 0), len(self._buf))
        if n:
            del self._buf[len(self._buf) - n :]
        return n

    def _scan(self) -> tuple[list[dict], int]:
        """The intact records, oldest first, and where the last one ends.

        A frame with a short header, short payload, or CRC mismatch ends
        the scan: corruption is never replayed.
        """
        records: list[dict] = []
        buf = self._buf
        offset = 0
        while offset + FRAME_HEADER.size <= len(buf):
            length, crc = FRAME_HEADER.unpack_from(buf, offset)
            start = offset + FRAME_HEADER.size
            payload = bytes(buf[start : start + length])
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            records.append(json.loads(payload.decode()))
            offset = start + length
        return records, offset

    def repair(self) -> int:
        """Truncate the buffer to its last intact frame (WAL fsck).

        A torn tail would otherwise poison every *future* append --- new
        frames concatenated after the partial one are unreachable to the
        decoder.  Returns the bytes dropped.
        """
        _, end = self._scan()
        dropped = len(self._buf) - end
        del self._buf[end:]
        return dropped

    def decode(self) -> tuple[list[dict], int]:
        """All intact records, oldest first, plus torn-tail bytes dropped.

        Everything from the first damaged frame onward is counted as the
        torn tail.
        """
        records, end = self._scan()
        torn = len(self._buf) - end
        self.truncated_bytes += torn
        return records, torn
