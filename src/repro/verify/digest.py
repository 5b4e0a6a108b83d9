"""Canonical state digests and per-fault digest chains.

The conformance harness needs one answer to "did these two runs compute
the same thing?".  This module provides it in two granularities:

* :func:`state_digest` --- one versioned SHA-256 over a canonical
  encoding of everything authoritative in a booted system: segment
  registry, frame ownership and contents, the hash page table, the
  SPCM's accounting (shards, markets, the arbiter's loan ledger), and
  the kernel counters.  Caches (TLB) are deliberately excluded: two
  equivalent runs may warm them differently without being wrong.

* :class:`DigestChain` --- an incremental hash chain with one link per
  recorded step (the determinism gate appends one per outermost kernel
  fault, plus a final full snapshot).  Each link's digest folds the
  previous link in, so chains from two runs diverge *at and after* the
  first step whose payload differs --- :meth:`DigestChain.first_divergence`
  pinpoints exactly where two runs parted ways.

Digests are stable only within one ``DIGEST_VERSION`` of the canonical
encoding.  Serialized chains and corpus entries carry the version, and
:func:`require_digest_version` fails loudly (:class:`DigestVersionError`,
CLI exit 2) on mismatch rather than reporting phantom divergences.

Floats are encoded via ``repr`` --- deterministic replay reproduces them
bit-for-bit, so exact encoding is safe and lossless.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.flags import PageFlags
from repro.errors import DigestVersionError
from repro.invariants import filed_frames

#: Version of the canonical state encoding.  Bump whenever the encoding
#: (or the set of state it covers) changes; recorded chains and corpus
#: entries from other versions are rejected, never silently compared.
DIGEST_VERSION = 1


def canonical_encode(value) -> str:
    """A deterministic string encoding of nested plain data.

    dicts are key-sorted, floats repr-encoded, bytes hex-encoded; tuples
    and lists are equivalent.  Raises ``TypeError`` for types without a
    canonical form (sets, arbitrary objects) --- digest payloads must be
    built from plain data on purpose.
    """
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


def _canonical(value):
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, (bytes, bytearray)):
        return f"b:{bytes(value).hex()}"
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def digest_payload(payload) -> str:
    """SHA-256 hex digest of one canonically encoded payload."""
    return hashlib.sha256(canonical_encode(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# full-state snapshot
# ---------------------------------------------------------------------------


#: a boot page's frame that was never made: filed read-write, no data
_BOOT_FLAGS = int(PageFlags.READ | PageFlags.WRITE)


def _frame_rows(kernel, segment) -> list:
    rows = []
    filed = sorted(filed_frames(kernel, segment), key=itemgetter(0))
    for page, pfn, frame in filed:
        if frame is None:
            rows.append((page, pfn, _BOOT_FLAGS, False, ""))
            continue
        rows.append(
            (
                page,
                pfn,
                frame.flags,
                # unmaterialized frames read as zeros but *are* different
                # state (a later write materializes); distinguish them
                frame.is_materialized,
                hashlib.sha256(frame.read()).hexdigest()
                if frame.is_materialized
                else "",
            )
        )
    return rows


def snapshot_state(system) -> dict:
    """The canonical plain-data snapshot :func:`state_digest` hashes.

    Exposed separately so tests (and divergence reports) can diff the
    decoded snapshot when two digests disagree.
    """
    kernel = system.kernel
    segments = []
    for segment in sorted(kernel.segments(), key=lambda s: s.seg_id):
        segments.append(
            {
                "seg_id": segment.seg_id,
                "name": segment.name,
                "n_pages": segment.n_pages,
                "page_size": segment.page_size,
                "prot": int(segment.prot),
                "manager": (
                    segment.manager.name if segment.manager is not None else None
                ),
                "frames": _frame_rows(kernel, segment),
            }
        )
    page_table = sorted(
        (entry.space_id, entry.vpn, entry.pfn, int(entry.prot))
        for entry in kernel.page_table.entries()
    )
    stats = kernel.stats.as_dict()
    return {
        "digest_version": DIGEST_VERSION,
        "segments": segments,
        "page_table": page_table,
        "retired_frames": sorted(kernel.retired_frames),
        "spcm": system.spcm.digest_rows() if system.spcm is not None else [],
        "kernel_stats": {k: stats[k] for k in sorted(stats)},
        "meter_total_us": kernel.meter.total_us,
    }


def state_digest(system) -> str:
    """One versioned SHA-256 over the whole system's authoritative state."""
    return digest_payload(snapshot_state(system))


# ---------------------------------------------------------------------------
# incremental chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    """One link: a label, the payload digest, and the chained digest."""

    index: int
    label: str
    digest: str


@dataclass
class Divergence:
    """Where two digest chains first part ways."""

    step: int
    label_a: str
    label_b: str
    digest_a: str
    digest_b: str

    def describe(self) -> str:
        """One line naming the step (or the length mismatch)."""
        if self.digest_a == "<absent>" or self.digest_b == "<absent>":
            return (
                f"chains differ in length at step {self.step}: "
                f"{self.label_a!r} vs {self.label_b!r}"
            )
        return (
            f"first divergent step {self.step}: {self.label_a!r} "
            f"({self.digest_a[:16]}...) vs {self.label_b!r} "
            f"({self.digest_b[:16]}...)"
        )


@dataclass
class DigestChain:
    """An append-only hash chain of recorded simulation steps."""

    meta: dict = field(default_factory=dict)
    version: int = DIGEST_VERSION
    steps: list[ChainStep] = field(default_factory=list)

    def append(self, label: str, payload) -> str:
        """Append one link; returns its chained digest."""
        previous = self.steps[-1].digest if self.steps else ""
        digest = digest_payload([previous, label, payload])
        self.steps.append(ChainStep(len(self.steps), label, digest))
        return digest

    @property
    def head(self) -> str:
        """The digest of the last link ('' for an empty chain)."""
        return self.steps[-1].digest if self.steps else ""

    def first_divergence(self, other: "DigestChain") -> Divergence | None:
        """The first step where the two chains differ (None: identical).

        Because each link folds the previous digest in, the first
        differing link is exactly the first differing *payload* --- every
        later link differs as a consequence and is not reported.
        """
        if self.version != other.version:
            raise DigestVersionError(
                f"cannot compare digest chains of versions "
                f"{self.version} and {other.version}"
            )
        for a, b in zip(self.steps, other.steps):
            if a.digest != b.digest:
                return Divergence(a.index, a.label, b.label, a.digest, b.digest)
        if len(self.steps) != len(other.steps):
            short, long_ = (
                (self, other)
                if len(self.steps) < len(other.steps)
                else (other, self)
            )
            step = len(short.steps)
            extra = long_.steps[step]
            missing = "<absent>"
            if long_ is other:
                return Divergence(step, missing, extra.label, missing, extra.digest)
            return Divergence(step, extra.label, missing, extra.digest, missing)
        return None

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        """A JSON-ready dict (carries ``digest_version``)."""
        return {
            "digest_version": self.version,
            "meta": self.meta,
            "steps": [[s.index, s.label, s.digest] for s in self.steps],
        }

    @classmethod
    def from_payload(cls, payload: dict, source: str = "<chain>") -> "DigestChain":
        """Rebuild a chain from :meth:`to_payload` output.

        Raises :class:`DigestVersionError` when the payload was recorded
        under a different ``DIGEST_VERSION``.
        """
        require_digest_version(payload, source)
        chain = cls(meta=dict(payload.get("meta", {})))
        for index, label, digest in payload.get("steps", []):
            chain.steps.append(ChainStep(int(index), str(label), str(digest)))
        return chain


def require_digest_version(payload: dict, source: str) -> None:
    """Refuse payloads recorded under another ``DIGEST_VERSION``.

    Mirrors the ``repro bench diff`` comparability contract: a version
    mismatch is exit code 2 (not comparable), never a reported
    divergence.
    """
    found = payload.get("digest_version")
    if found != DIGEST_VERSION:
        raise DigestVersionError(
            f"{source}: recorded under digest version {found!r}, this tree "
            f"computes version {DIGEST_VERSION} --- regenerate the entry "
            f"(digests across versions are not comparable)"
        )
