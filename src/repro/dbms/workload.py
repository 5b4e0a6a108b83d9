"""Transaction arrivals: Poisson at 40 TPS, 95% DebitCredit / 5% joins."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dbms.transactions import (
    IndexPolicy,
    TPContext,
    debit_credit,
    join_transaction,
)
from repro.sim.process import Delay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.simulator import TPConfig


@dataclass(frozen=True)
class TransactionMix:
    """Arrival rate and class mix (paper: 40 TPS, 95/5)."""

    arrival_tps: float = 40.0
    join_fraction: float = 0.05

    @property
    def mean_interarrival_us(self) -> float:
        return 1e6 / self.arrival_tps


def arrival_process(ctx: TPContext):
    """Spawn transactions for the configured duration.

    Every ``eviction_period_txns``-th arrival triggers the configured
    memory-pressure event: the conventional OS pages the index out
    (PAGING) or the SPCM reduces the DBMS's allocation and the manager
    discards the index (REGENERATE) --- "a one megabyte index is paged in
    every 500 transactions" (S3.3).
    """
    config = ctx.config
    engine = ctx.engine
    mix = TransactionMix(config.arrival_tps, config.join_fraction)
    mean_gap_us = mix.mean_interarrival_us
    rng = ctx.rng.substream("arrivals")
    classes = ctx.rng.substream("classes")
    end_us = config.duration_s * 1e6
    warmup_us = config.warmup_s * 1e6
    txn_id = 0
    while True:
        gap = rng.exponential(mean_gap_us)
        yield Delay(gap)
        if engine.now >= end_us:
            return
        txn_id += 1
        if (
            config.eviction_period_txns
            and txn_id % config.eviction_period_txns == 0
            and ctx.index is not None
        ):
            if config.policy is IndexPolicy.PAGING:
                ctx.index.evict_all()
            elif config.policy is IndexPolicy.REGENERATE:
                ctx.index.discard()
        measured = engine.now >= warmup_us
        is_join = classes.bernoulli(mix.join_fraction)
        if is_join:
            engine.spawn(
                join_transaction(ctx, txn_id, measured), name=f"join-{txn_id}"
            )
        else:
            engine.spawn(
                debit_credit(ctx, txn_id, measured), name=f"dc-{txn_id}"
            )
