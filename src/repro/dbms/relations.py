"""Relations and the database schema of the study.

The paper runs "a 120 megabyte database" with a DebitCredit-dominated mix:
the schema here is the classic bank --- accounts, tellers, branches, a
history append relation, and the summary relation the joins update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import DBMSError

MB = 1024 * 1024


@dataclass(frozen=True)
class Relation:
    """One relation: fixed-size records packed into pages."""

    name: str
    n_records: int
    record_size: int = 100
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.n_records <= 0 or self.record_size <= 0:
            raise DBMSError("relation must have records of positive size")
        if self.record_size > self.page_size:
            raise DBMSError("records larger than a page are not supported")

    @cached_property
    def records_per_page(self) -> int:
        return self.page_size // self.record_size

    @cached_property
    def n_pages(self) -> int:
        return -(-self.n_records // self.records_per_page)

    @property
    def size_bytes(self) -> int:
        return self.n_pages * self.page_size

    def page_of(self, record_id: int) -> int:
        """The page holding ``record_id``."""
        if not 0 <= record_id < self.n_records:
            raise DBMSError(
                f"record {record_id} outside relation {self.name}"
            )
        return record_id // self.records_per_page


@dataclass
class Database:
    """A named set of relations forming a lock hierarchy root."""

    name: str = "bankdb"
    relations: dict[str, Relation] = field(default_factory=dict)

    def add(self, relation: Relation) -> Relation:
        """Register a relation under its name."""
        if relation.name in self.relations:
            raise DBMSError(f"relation {relation.name!r} exists")
        self.relations[relation.name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        """The named relation (raises for unknown names)."""
        try:
            return self.relations[name]
        except KeyError:
            raise DBMSError(f"no relation named {name!r}") from None

    @property
    def size_bytes(self) -> int:
        return sum(r.size_bytes for r in self.relations.values())


def bank_database(db_mb: int = 120) -> Database:
    """The study's ~120 MB bank database.

    Accounts dominate; tellers/branches are small and hot; history is the
    append log; summary is the relation the join transactions update.
    """
    db = Database()
    # accounts sized to make the whole database ~db_mb
    overhead_mb = 14  # tellers+branches+history+summary below
    account_bytes = max(1, db_mb - overhead_mb) * MB
    db.add(Relation("accounts", n_records=account_bytes // 100))
    db.add(Relation("tellers", n_records=10_000))          # ~1 MB
    db.add(Relation("branches", n_records=1_000))          # ~0.1 MB
    db.add(Relation("history", n_records=80_000))          # ~8 MB
    db.add(Relation("summary", n_records=50_000))          # ~5 MB
    return db
