"""Periodic policy-state checkpoints bounding journal replay.

A :class:`CheckpointStore` subscribes to the journal's on-append hook and
snapshots a tracked manager's serialized policy state every
``every`` records that manager writes.  Because journal records are
appended *after* the mutation they describe and the checkpoint is taken
synchronously inside the hook, a checkpoint stored at journal position
``P`` is exactly the state produced by applying records ``[0, P)`` ---
warm restart restores the checkpoint and replays only the suffix.

Checkpoints reuse the :func:`repro.verify.digest.canonical_encode`
canonical form and carry their own CRC-32, so a corrupted checkpoint
(the ``checkpoint_corrupt`` chaos choke point) is *detected* at restore
time and the store falls back to the previous generation --- a longer
replay, never silent corruption.
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
    """Per-manager checkpoint generations driven by journal cadence.

    ``corrupt_hook`` is the chaos choke point: called with the manager
    name right after a checkpoint is taken; returning True flips a
    payload byte so the restore-time CRC check must catch it.
    """

    def __init__(self, journal, every: int = 64, keep: int = 2,
                 corrupt_hook=None) -> None:
        if every <= 0:
            raise ValueError(f"checkpoint cadence must be positive: {every}")
        if keep <= 0:
            raise ValueError(f"must keep at least one generation: {keep}")
        self.journal = journal
        self.every = every
        self.keep = keep
        self.corrupt_hook = corrupt_hook
        self._managers: dict[str, object] = {}
        self._counts: dict[str, int] = {}
        self._chains: dict[str, list[Checkpoint]] = {}
        self.checkpoints_taken = 0
        self.corrupt_checkpoints = 0
        journal.on_append(self._on_append)

    def track(self, manager) -> None:
        """Start checkpointing ``manager`` on its journal cadence."""
        name = manager.name
        if name in self._managers:
            return
        self._managers[name] = manager
        self._counts.setdefault(name, 0)
        self._chains.setdefault(name, [])

    def _on_append(self, position: int, record: dict) -> None:
        name = record.get("manager")
        manager = self._managers.get(name)
        if manager is None:
            return
        self._counts[name] += 1
        if self._counts[name] % self.every == 0:
            self.take(manager)

    def take(self, manager) -> Checkpoint:
        """Snapshot ``manager`` now, consistent with the current position."""
        state = manager.serialize_policy_state()
        payload = canonical_encode(state).encode()
        checkpoint = Checkpoint(
            manager=manager.name,
            position=self.journal.position,
            payload=payload,
            crc=zlib.crc32(payload),
        )
        if self.corrupt_hook is not None and self.corrupt_hook(manager.name):
            # chaos: a torn checkpoint write --- damage the payload so the
            # restore-time CRC check must reject this generation
            damaged = bytearray(payload)
            damaged[0] ^= 0xFF
            checkpoint.payload = bytes(damaged)
        chain = self._chains.setdefault(manager.name, [])
        chain.append(checkpoint)
        del chain[: -self.keep]
        self.checkpoints_taken += 1
        return checkpoint

    def latest(self, name: str) -> tuple[int, dict | None]:
        """The newest restorable ``(position, state)`` for ``name``.

        Falls back generation by generation past corrupt checkpoints;
        with none restorable, returns ``(0, None)`` --- replay from the
        fresh-boot empty state over the whole journal.
        """
        for checkpoint in reversed(self._chains.get(name, [])):
            try:
                return checkpoint.position, checkpoint.restore()
            except JournalCorruptionError:
                self.corrupt_checkpoints += 1
        return 0, None

    def stats_dict(self) -> dict[str, float]:
        """Flat values for a telemetry provider."""
        return {
            "taken": float(self.checkpoints_taken),
            "corrupt": float(self.corrupt_checkpoints),
        }
