"""Translation structures: the V++ global hash table and the linear table."""

from __future__ import annotations

import pytest

from repro.hw.page_table import GlobalHashPageTable, LinearPageTable, Translation


class TestTranslation:
    """A translation is an immutable, hashable tuple record."""

    def test_fields_and_defaults(self):
        assert Translation._fields == ("space_id", "vpn", "pfn", "prot")
        assert Translation(1, 5, 42).prot == 0

    def test_immutable_and_hashable(self):
        entry = Translation(1, 5, 42, prot=3)
        for name in Translation._fields:
            with pytest.raises(AttributeError):
                setattr(entry, name, 0)
        with pytest.raises(AttributeError):
            entry.extra = 1  # type: ignore[attr-defined]
        twin = Translation(*entry)
        assert hash(twin) == hash(entry)
        assert len({entry, twin}) == 1


class TestGlobalHashPageTable:
    def test_insert_then_lookup(self):
        pt = GlobalHashPageTable()
        pt.insert(Translation(1, 5, 42, prot=3))
        entry = pt.lookup(1, 5)
        assert entry is not None
        assert entry.pfn == 42
        assert entry.prot == 3

    def test_miss_returns_none_and_counts(self):
        pt = GlobalHashPageTable()
        assert pt.lookup(1, 5) is None
        assert pt.stats.lookups == 1
        assert pt.stats.misses == 1
        assert pt.stats.hit_rate == 0.0

    def test_reinsert_same_key_updates(self):
        pt = GlobalHashPageTable()
        pt.insert(Translation(1, 5, 42))
        pt.insert(Translation(1, 5, 43))
        entry = pt.lookup(1, 5)
        assert entry is not None and entry.pfn == 43
        assert pt.stats.collisions == 0

    def test_collision_spills_to_overflow(self):
        pt = GlobalHashPageTable(n_entries=1, overflow_entries=4)
        pt.insert(Translation(1, 1, 10))
        pt.insert(Translation(2, 2, 20))  # collides (single slot)
        assert pt.stats.collisions == 1
        assert pt.stats.overflow_inserts == 1
        first = pt.lookup(1, 1)
        assert first is not None and first.pfn == 10  # survived in overflow
        second = pt.lookup(2, 2)
        assert second is not None and second.pfn == 20

    def test_full_overflow_drops_entries_soft(self):
        pt = GlobalHashPageTable(n_entries=1, overflow_entries=1)
        pt.insert(Translation(1, 1, 10))
        pt.insert(Translation(2, 2, 20))
        pt.insert(Translation(3, 3, 30))
        assert pt.stats.dropped == 1  # soft miss, not an error
        latest = pt.lookup(3, 3)
        assert latest is not None and latest.pfn == 30

    def test_remove(self):
        pt = GlobalHashPageTable()
        pt.insert(Translation(1, 5, 42))
        assert pt.remove(1, 5)
        assert pt.lookup(1, 5) is None
        assert not pt.remove(1, 5)

    def test_remove_space_clears_main_and_overflow(self):
        pt = GlobalHashPageTable(n_entries=1, overflow_entries=8)
        pt.insert(Translation(1, 1, 10))
        pt.insert(Translation(1, 2, 11))  # spills the first
        pt.insert(Translation(2, 9, 20))  # spills the second
        removed = pt.remove_space(1)
        assert removed == 2
        assert pt.lookup(1, 1) is None
        assert pt.lookup(1, 2) is None
        survivor = pt.lookup(2, 9)
        assert survivor is not None and survivor.pfn == 20

    def test_entries_enumerates_live(self):
        pt = GlobalHashPageTable()
        for vpn in range(10):
            pt.insert(Translation(1, vpn, vpn))
        assert len(pt.entries()) == 10

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            GlobalHashPageTable(n_entries=0)
        with pytest.raises(ValueError):
            GlobalHashPageTable(overflow_entries=-1)

    def test_paper_default_geometry(self):
        """V++ uses a 64K-entry table with a 32-entry overflow (S3.2)."""
        pt = GlobalHashPageTable()
        assert pt.n_entries == 65536
        assert pt.overflow_entries == 32


class TestLinearPageTable:
    def test_per_space_isolation(self):
        pt = LinearPageTable()
        pt.insert(Translation(1, 5, 42))
        pt.insert(Translation(2, 5, 99))
        one = pt.lookup(1, 5)
        two = pt.lookup(2, 5)
        assert one is not None and one.pfn == 42
        assert two is not None and two.pfn == 99

    def test_remove_and_remove_space(self):
        pt = LinearPageTable()
        for vpn in range(5):
            pt.insert(Translation(7, vpn, vpn))
        assert pt.remove(7, 0)
        assert not pt.remove(7, 0)
        assert not pt.remove(8, 0)
        assert pt.remove_space(7) == 4
        assert pt.remove_space(7) == 0

    def test_entries(self):
        pt = LinearPageTable()
        pt.insert(Translation(1, 1, 1))
        pt.insert(Translation(2, 2, 2))
        assert len(pt.entries()) == 2
