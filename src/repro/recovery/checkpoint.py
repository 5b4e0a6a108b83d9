"""Periodic policy-state checkpoints bounding journal replay.

A :class:`CheckpointStore` subscribes to each tracked manager's own
journal and snapshots the manager's serialized policy state every
``every`` records of that log.  Because journal records are appended
*after* the mutation they describe and the checkpoint is taken
synchronously inside the append hook, a checkpoint stored at journal
position ``P`` is exactly the state produced by applying records
``[0, P)`` --- warm restart restores the checkpoint and replays only
the suffix.

Checkpoints reuse the :func:`repro.verify.digest.canonical_encode`
canonical form and carry their own CRC-32.  Each one is read back as it
is written: an intact one replaces the manager's previous checkpoint and
the journal drops every record it covers, while a damaged one (the
``checkpoint_corrupt`` chaos choke point) is counted and discarded, so
the previous checkpoint and the longer log behind it stay in force ---
a longer replay, never silent corruption.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

from repro.errors import JournalCorruptionError
from repro.verify.digest import canonical_encode


@dataclass
class Checkpoint:
    """One serialized policy snapshot tied to a journal position."""

    manager: str
    #: journal position the snapshot is consistent with (replay starts here)
    position: int
    payload: bytes
    crc: int

    def restore(self) -> dict:
        """Decode the snapshot; CRC-checked."""
        if zlib.crc32(self.payload) != self.crc:
            raise JournalCorruptionError(
                f"checkpoint for {self.manager} at position {self.position} "
                f"failed its CRC check"
            )
        return json.loads(self.payload.decode())


class CheckpointStore:
    """Each tracked manager's newest good checkpoint, on its log's cadence.

    ``corrupt_hook`` is the chaos choke point: called with the manager
    name right after a checkpoint is taken; returning True flips a
    payload byte so the read-back CRC check must catch it.
    """

    def __init__(self, every: int = 64, corrupt_hook=None) -> None:
        if every <= 0:
            raise ValueError(f"checkpoint cadence must be positive: {every}")
        self.every = every
        self.corrupt_hook = corrupt_hook
        self._latest: dict[str, Checkpoint] = {}
        self.checkpoints_taken = 0
        self.corrupt_checkpoints = 0

    def track(self, manager) -> None:
        """Checkpoint ``manager`` every ``every`` records of its journal."""

        def on_append(position: int, record: dict) -> None:
            if (position + 1) % self.every == 0:
                self.take(manager)

        manager.journal.on_append(on_append)

    def take(self, manager) -> Checkpoint:
        """Snapshot ``manager`` now, consistent with its journal position."""
        state = manager.serialize_policy_state()
        payload = canonical_encode(state).encode()
        checkpoint = Checkpoint(
            manager=manager.name,
            position=manager.journal.position,
            payload=payload,
            crc=zlib.crc32(payload),
        )
        self.checkpoints_taken += 1
        if self.corrupt_hook is not None and self.corrupt_hook(manager.name):
            # chaos: a torn checkpoint write --- damage the payload so the
            # read-back CRC check must reject it
            damaged = bytearray(payload)
            damaged[0] ^= 0xFF
            checkpoint.payload = bytes(damaged)
        try:
            checkpoint.restore()
        except JournalCorruptionError:
            self.corrupt_checkpoints += 1
            return checkpoint
        self._latest[manager.name] = checkpoint
        manager.journal.trim()
        return checkpoint

    def latest(self, name: str) -> tuple[int, dict | None]:
        """The newest good ``(position, state)`` for ``name``.

        With none, returns ``(0, None)`` --- replay from the fresh-boot
        empty state over the whole journal.
        """
        checkpoint = self._latest.get(name)
        if checkpoint is None:
            return 0, None
        return checkpoint.position, checkpoint.restore()

    def stats_dict(self) -> dict[str, float]:
        """Flat values for a telemetry provider."""
        return {
            "taken": float(self.checkpoints_taken),
            "corrupt": float(self.corrupt_checkpoints),
        }
