"""Crash-consistent manager recovery.

Per-manager write-ahead journals (:mod:`repro.recovery.journal`),
replay-bounding checkpoints (:mod:`repro.recovery.checkpoint`), the
warm-restart coordinator (:mod:`repro.recovery.restart`), and the
fsck-style recovery auditor (:mod:`repro.recovery.auditor`).
"""

from repro.recovery.auditor import Discrepancy, RecoveryAuditor
from repro.recovery.checkpoint import Checkpoint, CheckpointStore
from repro.recovery.journal import NULL_JOURNAL, NullJournal, RecoveryJournal
from repro.recovery.restart import (
    RecoveryCoordinator,
    RestartReport,
    install_recovery,
)

__all__ = [
    "NULL_JOURNAL",
    "NullJournal",
    "RecoveryJournal",
    "Checkpoint",
    "CheckpointStore",
    "Discrepancy",
    "RecoveryAuditor",
    "RecoveryCoordinator",
    "RestartReport",
    "install_recovery",
]
