"""Distributed physical memory, DASH style.

"In the DASH machine, physical memory is distributed, even though the
machine provides a consistent shared memory abstraction ... a large-scale
application can allocate page frames to specific portions of the program
based on a page frame's physical location in the machine and the expected
access to this portion of memory" (S1).

The topology partitions the physical address space into equal-size node
clusters and prices accesses: local references cost the base time, remote
references a multiple of it (DASH's remote/local ratio was roughly 4:1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError
from repro.hw.phys_mem import PhysicalMemory


@dataclass(frozen=True)
class NumaTopology:
    """Equal clusters over a contiguous physical address space."""

    n_nodes: int
    node_bytes: int
    local_access_us: float = 0.1
    remote_access_us: float = 0.4   # DASH-like ~4:1 remote penalty

    def __post_init__(self) -> None:
        if self.n_nodes <= 0 or self.node_bytes <= 0:
            raise HardwareError("topology must have nodes of positive size")
        if self.remote_access_us < self.local_access_us:
            raise HardwareError("remote access cannot be cheaper than local")

    @classmethod
    def for_memory(
        cls,
        memory: PhysicalMemory,
        n_nodes: int,
        local_access_us: float = 0.1,
        remote_access_us: float = 0.4,
    ) -> "NumaTopology":
        if memory.size_bytes % n_nodes != 0:
            raise HardwareError(
                f"memory of {memory.size_bytes} bytes does not divide "
                f"into {n_nodes} nodes"
            )
        topology = cls(
            n_nodes,
            memory.size_bytes // n_nodes,
            local_access_us,
            remote_access_us,
        )
        topology.validate_for(memory)
        return topology

    def validate_for(self, memory: PhysicalMemory) -> None:
        """Raise unless the nodes cover ``memory`` exactly, frame-aligned.

        Called wherever a topology is attached to a machine (kernel and
        SPCM construction), so a mismatched ``node_bytes`` fails up front
        instead of on the first remote access.  Every node boundary must
        also fall between frames: a frame split across two nodes would be
        booked on the node of its first byte only.  The check is
        arithmetic over each pool's base address and makes no frame.
        """
        if self.total_bytes != memory.size_bytes:
            raise HardwareError(
                f"topology covers {self.total_bytes} bytes "
                f"({self.n_nodes} x {self.node_bytes}) but the machine "
                f"has {memory.size_bytes} bytes of physical memory"
            )
        for size, pfns in memory.pools.items():
            pool_addr = memory.pool_addrs[size]
            for node in range(1, self.n_nodes):
                offset = node * self.node_bytes - pool_addr
                if 0 < offset < len(pfns) * size and offset % size:
                    raise HardwareError(
                        f"node {node} starts inside a {size}-byte frame"
                    )

    @property
    def total_bytes(self) -> int:
        return self.n_nodes * self.node_bytes

    def node_of(self, phys_addr: int) -> int:
        """The home node of a physical address."""
        # total_bytes inlined: this runs once per frame granted on a NUMA
        # machine, and a property read is a Python-level call
        if not 0 <= phys_addr < self.n_nodes * self.node_bytes:
            raise HardwareError(f"address {phys_addr:#x} outside the machine")
        return phys_addr // self.node_bytes

    def node_range(self, node: int) -> tuple[int, int]:
        """The physical address range [lo, hi) of one node's memory."""
        if not 0 <= node < self.n_nodes:
            raise HardwareError(f"no such node: {node}")
        return node * self.node_bytes, (node + 1) * self.node_bytes

    def access_us(self, accessor_node: int, phys_addr: int) -> float:
        """Cost of one reference from ``accessor_node`` to ``phys_addr``."""
        if self.node_of(phys_addr) == accessor_node:
            return self.local_access_us
        return self.remote_access_us

    def is_local(self, accessor_node: int, phys_addr: int) -> bool:
        """True when ``phys_addr`` is on the accessor's own node."""
        return self.node_of(phys_addr) == accessor_node

    def nodes(self) -> range:
        """Node ids, in order."""
        return range(self.n_nodes)
