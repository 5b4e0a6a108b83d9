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
        # what a never-written block reads as, shared by every such read
        self._zero_block = bytes(block_size)
        self.stats = DiskStats()
        #: set by ``build_system``; transfers are reported as trace events
        self.tracer = NULL_TRACER
        #: chaos choke point; transient errors and latency spikes land here
        self.injector = NULL_INJECTOR

    def _check_block(self, block_no: int) -> None:
        if not 0 <= block_no < self.capacity_blocks:
            raise DiskError(f"block {block_no} out of range")

    def _injected_factor(self, op: str, block_no: int) -> float:
        """Consult the enabled injector before a transfer touches any state.

        Returns the service-time multiplier; raises
        :class:`TransientDiskError` when an error is injected, before any
        block is read or written, so a retried request sees clean state.
        The transfers call this only with injection on (the factor is
        1.0 otherwise), and :meth:`_note_io` only with tracing on.
        """
        try:
            return self.injector.disk_io(op, block_no)
        except TransientDiskError:
            self.stats.errors += 1
            raise

    def _note_io(self, op: str, block_no: int, n_bytes: int, us: float) -> None:
        self.tracer.event(
            "disk", f"{op}: {n_bytes} bytes at block {block_no}", us
        )

    def read_block(self, block_no: int) -> tuple[bytes, float]:
        """Read one block; returns ``(data, service_time_us)``."""
        return self.read_range(block_no, 1)

    def write_block(self, block_no: int, data: bytes) -> float:
        """Write one block; returns the service time in microseconds."""
        if len(data) != self.block_size:
            raise DiskError(
                f"write of {len(data)} bytes to {self.block_size}-byte block"
            )
        return self.write_range(block_no, data)

    def read_range(self, block_no: int, n_blocks: int) -> tuple[bytes, float]:
        """Read ``n_blocks`` contiguous blocks as one request.

        One seek is charged for the whole request; transfer time scales
        with the byte count.  Every file-server page fetch lands here, so
        a range inside the disk skips the per-end checks and a block never
        written reads as one shared zero block.
        """
        if n_blocks <= 0:
            raise DiskError("must read at least one block")
        end = block_no + n_blocks
        if block_no < 0 or end > self.capacity_blocks:
            self._check_block(block_no)
            self._check_block(end - 1)
        factor = 1.0
        if self.injector.enabled:
            factor = self._injected_factor("read", block_no)
        blocks = self._blocks
        if n_blocks == 1:
            data = blocks.get(block_no, self._zero_block)
        else:
            zero = self._zero_block
            data = b"".join([blocks.get(b, zero) for b in range(block_no, end)])
        n_bytes = n_blocks * self.block_size
        service_us = factor * self.costs.disk_transfer_us(n_bytes)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += n_bytes
        stats.busy_us += service_us
        if self.tracer.enabled:
            self._note_io("read", block_no, n_bytes, service_us)
        return data, service_us

    def write_range(self, block_no: int, data: bytes) -> float:
        """Write contiguous blocks as one request; returns service time."""
        if len(data) == 0 or len(data) % self.block_size != 0:
            raise DiskError(
                f"write length {len(data)} is not a positive multiple of "
                f"the block size {self.block_size}"
            )
        n_blocks = len(data) // self.block_size
        if block_no < 0 or block_no + n_blocks > self.capacity_blocks:
            self._check_block(block_no)
            self._check_block(block_no + n_blocks - 1)
        factor = 1.0
        if self.injector.enabled:
            factor = self._injected_factor("write", block_no)
        for i in range(n_blocks):
            self._blocks[block_no + i] = bytes(
                data[i * self.block_size : (i + 1) * self.block_size]
            )
        service_us = factor * self.costs.disk_transfer_us(len(data))
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += len(data)
        stats.busy_us += service_us
        if self.tracer.enabled:
            self._note_io("write", block_no, len(data), service_us)
        return service_us
