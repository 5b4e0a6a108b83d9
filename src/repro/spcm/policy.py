"""Allocation policies for the SPCM.

"The SPCM can grant, defer or refuse the request, based on the competing
demands on the memory and memory allocation policy" (paper, S2.4).  A
policy sees the request size and the pool state and returns how many
frames to grant now --- with :data:`DEFER` meaning "none now, ask again"
and :data:`REFUSE` meaning "never".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum, auto
from typing import NamedTuple

from repro.spcm.market import MemoryMarket


class AllocationDecision(Enum):
    """What the SPCM does with a request (S2.4)."""

    GRANT = auto()       # grant some or all of the request now
    DEFER = auto()       # nothing now; the requester should retry later
    REFUSE = auto()      # the request violates policy outright


# The decisions as module globals, for the grant path: on CPython 3.11
# the Enum metaclass defines ``__getattr__``, so every attribute read off
# an Enum class takes the slow hooked lookup (about 80 ns, against about
# 9 ns for a global).
GRANT = AllocationDecision.GRANT
DEFER = AllocationDecision.DEFER
REFUSE = AllocationDecision.REFUSE


class PolicyVerdict(NamedTuple):
    decision: AllocationDecision
    n_frames: int = 0


#: the verdicts that carry no frame count, built once: the SPCM asks its
#: policy on every refill, and a NamedTuple's ``__new__`` is a Python
#: function (``tuple.__new__(PolicyVerdict, ...)`` builds the same tuple)
DEFER_VERDICT = PolicyVerdict(DEFER)
REFUSE_VERDICT = PolicyVerdict(REFUSE)
_new_verdict = tuple.__new__


class AllocationPolicy(ABC):
    """Decides how much of a frame request to satisfy."""

    @abstractmethod
    def decide(
        self,
        account: str,
        n_requested: int,
        n_free: int,
        page_size: int,
    ) -> PolicyVerdict:
        """Return a verdict for a request of ``n_requested`` frames."""


class ReservePolicy(AllocationPolicy):
    """Grant freely but keep a reserve of frames for the system.

    Requests that would dip into the reserve are partially granted;
    a request when only the reserve remains is deferred.
    """

    def __init__(self, reserve_frames: int = 32) -> None:
        if reserve_frames < 0:
            raise ValueError("reserve cannot be negative")
        self.reserve_frames = reserve_frames

    def decide(
        self, account: str, n_requested: int, n_free: int, page_size: int
    ) -> PolicyVerdict:
        grantable = n_free - self.reserve_frames
        if grantable <= 0:
            return DEFER_VERDICT
        return _new_verdict(
            PolicyVerdict,
            (GRANT, n_requested if n_requested < grantable else grantable),
        )


class MarketPolicy(AllocationPolicy):
    """Grant only what the requester's dram account can sustain.

    The account must be able to pay for the expanded holding for at least
    ``min_hold_seconds``; otherwise the request is deferred so the account
    can save (the paper's batch-program behavior).  Accounts in debt are
    refused.
    """

    def __init__(
        self,
        market: MemoryMarket,
        min_hold_seconds: float = 1.0,
        reserve_frames: int = 0,
    ) -> None:
        self.market = market
        self.min_hold_seconds = min_hold_seconds
        self.reserve_frames = reserve_frames

    def decide(
        self, account: str, n_requested: int, n_free: int, page_size: int
    ) -> PolicyVerdict:
        if account not in self.market.accounts:
            return REFUSE_VERDICT
        if self.market.is_broke(account):
            return REFUSE_VERDICT
        grantable = max(0, n_free - self.reserve_frames)
        if grantable == 0:
            return DEFER_VERDICT
        acct = self.market.account(account)
        mb_per_frame = page_size / (1024.0 * 1024.0)
        # Largest holding the account can carry for min_hold_seconds.
        n = min(n_requested, grantable)
        while n > 0:
            new_holding = acct.holding_mb + n * mb_per_frame
            horizon = self.market.affordable_seconds(account, new_holding)
            if horizon >= self.min_hold_seconds:
                return PolicyVerdict(GRANT, n)
            n //= 2
        return DEFER_VERDICT
