"""Secondary storage: a block store with a latency/bandwidth time model.

The disk stores real bytes (so file-server round trips are exact) and
reports the service time of each transfer from the machine cost model:
``latency + bytes / bandwidth``.  Queueing, where it matters (the Table 4
database study), is modeled above this layer with the discrete-event
engine's resources.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.injector import NULL_INJECTOR
from repro.errors import DiskError, TransientDiskError
from repro.hw.costs import MachineCosts
from repro.obs.trace import NULL_TRACER


@dataclass
class DiskStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_us: float = 0.0
    #: transient errors surfaced to callers (chaos injection only)
    errors: int = 0


class Disk:
    """A simple block device: ``block_size``-byte blocks, lazily zero-filled."""

    def __init__(
        self,
        costs: MachineCosts,
        block_size: int = 4096,
        capacity_blocks: int = 1 << 20,
    ) -> None:
        if block_size <= 0 or capacity_blocks <= 0:
            raise DiskError("block size and capacity must be positive")
        self.costs = costs
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self._blocks: dict[int, bytes] = {}
        self.stats = DiskStats()
        #: set by ``build_system``; transfers are reported as trace events
        self.tracer = NULL_TRACER
        #: chaos choke point; transient errors and latency spikes land here
        self.injector = NULL_INJECTOR

    def _check_block(self, block_no: int) -> None:
        if not 0 <= block_no < self.capacity_blocks:
            raise DiskError(f"block {block_no} out of range")

    def _injected_factor(self, op: str, block_no: int) -> float:
        """Consult the injector before a transfer touches any state.

        Returns the service-time multiplier (1.0 with injection off);
        raises :class:`TransientDiskError` when an error is injected,
        before any block is read or written, so a retried request sees
        clean state.
        """
        if not self.injector.enabled:
            return 1.0
        try:
            return self.injector.disk_io(op, block_no)
        except TransientDiskError:
            self.stats.errors += 1
            raise

    def _note_io(self, op: str, block_no: int, n_bytes: int, us: float) -> None:
        if self.tracer.enabled:
            self.tracer.event(
                "disk", f"{op}: {n_bytes} bytes at block {block_no}", us
            )

    def read_block(self, block_no: int) -> tuple[bytes, float]:
        """Read one block; returns ``(data, service_time_us)``."""
        self._check_block(block_no)
        factor = self._injected_factor("read", block_no)
        data = self._blocks.get(block_no, bytes(self.block_size))
        service_us = factor * self.costs.disk_transfer_us(self.block_size)
        self.stats.reads += 1
        self.stats.bytes_read += self.block_size
        self.stats.busy_us += service_us
        self._note_io("read", block_no, self.block_size, service_us)
        return data, service_us

    def write_block(self, block_no: int, data: bytes) -> float:
        """Write one block; returns the service time in microseconds."""
        self._check_block(block_no)
        if len(data) != self.block_size:
            raise DiskError(
                f"write of {len(data)} bytes to {self.block_size}-byte block"
            )
        factor = self._injected_factor("write", block_no)
        self._blocks[block_no] = bytes(data)
        service_us = factor * self.costs.disk_transfer_us(self.block_size)
        self.stats.writes += 1
        self.stats.bytes_written += self.block_size
        self.stats.busy_us += service_us
        self._note_io("write", block_no, self.block_size, service_us)
        return service_us

    def read_range(self, block_no: int, n_blocks: int) -> tuple[bytes, float]:
        """Read ``n_blocks`` contiguous blocks as one request.

        One seek is charged for the whole request; transfer time scales
        with the byte count.
        """
        if n_blocks <= 0:
            raise DiskError("must read at least one block")
        self._check_block(block_no)
        self._check_block(block_no + n_blocks - 1)
        factor = self._injected_factor("read", block_no)
        chunks = [
            self._blocks.get(b, bytes(self.block_size))
            for b in range(block_no, block_no + n_blocks)
        ]
        n_bytes = n_blocks * self.block_size
        service_us = factor * self.costs.disk_transfer_us(n_bytes)
        self.stats.reads += 1
        self.stats.bytes_read += n_bytes
        self.stats.busy_us += service_us
        self._note_io("read", block_no, n_bytes, service_us)
        return b"".join(chunks), service_us

    def write_range(self, block_no: int, data: bytes) -> float:
        """Write contiguous blocks as one request; returns service time."""
        if len(data) == 0 or len(data) % self.block_size != 0:
            raise DiskError(
                f"write length {len(data)} is not a positive multiple of "
                f"the block size {self.block_size}"
            )
        n_blocks = len(data) // self.block_size
        self._check_block(block_no)
        self._check_block(block_no + n_blocks - 1)
        factor = self._injected_factor("write", block_no)
        for i in range(n_blocks):
            self._blocks[block_no + i] = bytes(
                data[i * self.block_size : (i + 1) * self.block_size]
            )
        service_us = factor * self.costs.disk_transfer_us(len(data))
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        self.stats.busy_us += service_us
        self._note_io("write", block_no, len(data), service_us)
        return service_us
