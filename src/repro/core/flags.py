"""Page flags and protections.

``MigratePages`` and ``ModifyPageFlags`` set and clear per-frame flag bits
(paper, S2.1); these are the bit definitions.  The protection bits (READ,
WRITE) gate access; DIRTY and REFERENCED are maintained by the kernel on
access and are readable/writable by managers --- which is precisely what a
manager needs to run a clock algorithm or skip writeback of clean pages.
"""

from __future__ import annotations

from enum import IntFlag


class PageFlags(IntFlag):
    """Per-page-frame flag bits."""

    NONE = 0
    READ = 1 << 0          # reads permitted
    WRITE = 1 << 1         # writes permitted
    REFERENCED = 1 << 2    # touched since last cleared
    DIRTY = 1 << 3         # modified since last cleared
    PINNED = 1 << 4        # manager excluded this frame from reclamation
    ZERO_FILL = 1 << 5     # frame must be zeroed before (re)use across users

    @classmethod
    def rw(cls) -> "PageFlags":
        """The common read-write protection."""
        return cls.READ | cls.WRITE

    @classmethod
    def ro(cls) -> "PageFlags":
        """Read-only protection."""
        return cls.READ


# Plain-int values of the bits, and prebuilt members for the
# combinations requests pass.  ``frame.flags`` is a plain int, and
# PageFlags operators (``|``, ``&``, ``in``, ``PageFlags(i)``) run
# through enum.py at Python speed, and on CPython 3.11 even reading a
# member off the class takes a slow hooked lookup, so the fault paths
# test and pass these instead.
READ_I = int(PageFlags.READ)
WRITE_I = int(PageFlags.WRITE)
RW_I = READ_I | WRITE_I
REFERENCED_I = int(PageFlags.REFERENCED)
DIRTY_I = int(PageFlags.DIRTY)
PINNED_I = int(PageFlags.PINNED)
ZERO_FILL_I = int(PageFlags.ZERO_FILL)
RW = PageFlags.READ | PageFlags.WRITE
REFERENCED = PageFlags.REFERENCED
RW_REFERENCED = RW | PageFlags.REFERENCED
REFERENCED_DIRTY = PageFlags.REFERENCED | PageFlags.DIRTY

#: Flags a manager may set/clear via kernel operations.  REFERENCED and
#: DIRTY are included deliberately: exposing them is one of the paper's
#: extensions over mprotect.
MANAGER_SETTABLE = (
    PageFlags.READ
    | PageFlags.WRITE
    | PageFlags.REFERENCED
    | PageFlags.DIRTY
    | PageFlags.PINNED
    | PageFlags.ZERO_FILL
)


def describe_flags(flags: PageFlags | int) -> str:
    """Human-readable rendering, e.g. ``'READ|WRITE|DIRTY'``."""
    flags = PageFlags(flags)
    if flags == PageFlags.NONE:
        return "NONE"
    names = [f.name for f in PageFlags if f != PageFlags.NONE and f in flags]
    return "|".join(name for name in names if name is not None)
