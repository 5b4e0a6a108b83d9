"""The global arbiter over per-node SPCM shards.

With the SPCM sharded over the NUMA topology (one shard per node, each
owning its node's frame pool and running its own dram market), something
thin and global has to keep the shards honest with each other:

* **frame loans** --- when a manager's home-node shard runs dry, the
  arbiter brokers a grant out of another node's pool.  The frames stay
  physically remote (they are charged the DASH remote penalty at
  migration time); the arbiter keeps the borrower/lender ledger so the
  scale-out bench and the invariant checker can see cross-node flow.

* **dram rebalancing** --- each shard market accrues income and charges
  independently, but an account's demand is rarely spread the way its
  income is.  On every market advance the arbiter pools an account's
  per-shard balances and redistributes them in proportion to where the
  account actually holds memory, so a manager working on node 3 is not
  broke there while rich on node 0.  Transfers are balanced pairs, so
  drams are conserved machine-wide.
"""

from __future__ import annotations

from repro.spcm.market import MemoryMarket


class GlobalArbiter:
    """Rebalances drams between shard markets and books frame loans."""

    def __init__(self, markets: list[MemoryMarket]) -> None:
        self.markets = markets
        #: (borrower_node, lender_node) -> frames granted across that edge
        self.loans: dict[tuple[int, int], int] = {}
        self.loans_brokered = 0
        self.rebalance_rounds = 0
        #: account -> machine-wide frame-holding cap (the serving layer's
        #: per-tenant dram quota); absent accounts are unlimited
        self.quotas: dict[str, int] = {}

    # -- per-tenant quotas ---------------------------------------------------

    def set_quota(self, account: str, frames: int | None) -> None:
        """Cap ``account``'s machine-wide frame holdings (None removes).

        The quota lives at the global layer because holdings are summed
        across every shard: a tenant cannot dodge its cap by spreading
        requests over nodes.  The SPCM consults it at grant time and
        *defers* (never refuses) a request that would breach it.
        """
        if frames is None:
            self.quotas.pop(account, None)
        else:
            if frames < 0:
                raise ValueError(f"frame quota must be >= 0: {frames}")
            self.quotas[account] = frames

    def quota_of(self, account: str) -> int | None:
        """The account's machine-wide frame cap, or None if unlimited."""
        return self.quotas.get(account)

    # -- frame loans --------------------------------------------------------

    def note_loan(
        self, borrower_node: int, lender_node: int, n_frames: int
    ) -> None:
        """Book ``n_frames`` granted from ``lender_node``'s pool to a
        request homed on ``borrower_node``."""
        if n_frames <= 0 or borrower_node == lender_node:
            return
        edge = (borrower_node, lender_node)
        self.loans[edge] = self.loans.get(edge, 0) + n_frames
        self.loans_brokered += n_frames

    def loaned_to(self, borrower_node: int) -> int:
        """Frames other nodes have lent to ``borrower_node``'s demand."""
        return sum(
            n for (b, _), n in self.loans.items() if b == borrower_node
        )

    # -- dram rebalancing ---------------------------------------------------

    def rebalance_drams(self) -> float:
        """Redistribute each account's drams toward its memory holdings.

        For every account open in more than one shard market, the pooled
        balance is split in proportion to the account's per-shard
        ``holding_mb`` (evenly when it holds nothing anywhere).  Returns
        the drams moved this round.
        """
        if len(self.markets) < 2:
            return 0.0
        self.rebalance_rounds += 1
        names: set[str] = set()
        for market in self.markets:
            names.update(market.accounts)
        moved = 0.0
        for name in sorted(names):
            holders = [m for m in self.markets if name in m.accounts]
            if len(holders) < 2:
                continue
            balances = [m.accounts[name].balance for m in holders]
            weights = [m.accounts[name].holding_mb for m in holders]
            total = sum(balances)
            weight_sum = sum(weights)
            if weight_sum > 0:
                # divide first: the weight ratio is well-conditioned in
                # [0, 1], while total * w can round catastrophically for
                # tiny (subnormal) weights and mint drams out of thin air
                targets = [total * (w / weight_sum) for w in weights]
            else:
                targets = [total / len(holders)] * len(holders)
            for market, balance, target in zip(holders, balances, targets):
                delta = target - balance
                if delta:
                    market.receive_transfer(name, delta)
                    moved += abs(delta) / 2.0
        return moved

    # -- observability ------------------------------------------------------

    def digest_rows(self) -> list:
        """Canonical rows of the loan ledger for the verify state digest."""
        return (
            [
                ("loan", borrower, lender, n)
                for (borrower, lender), n in sorted(self.loans.items())
            ]
            + [("loans_brokered", self.loans_brokered)]
            + [
                ("quota", account, frames)
                for account, frames in sorted(self.quotas.items())
            ]
        )
