"""Tests for the MD5 content-addressed dedup store."""

import pytest

from repro.storage.dedup import ContentStore, content_id


class TestContentId:
    def test_md5_hex_format(self):
        digest = content_id("hello")
        assert len(digest) == 32
        assert int(digest, 16) >= 0

    def test_same_content_same_id(self):
        assert content_id("payload") == content_id(b"payload")

    def test_different_content_different_id(self):
        assert content_id("a") != content_id("b")


class TestContentStore:
    def test_first_add_is_not_a_dedup(self):
        store = ContentStore()
        assert store.add("x", 100.0) is False
        assert store.physical_bytes == 100.0
        assert store.logical_bytes == 100.0

    def test_second_add_deduplicates(self):
        store = ContentStore()
        store.add("x", 100.0)
        assert store.add("x", 100.0) is True
        assert store.physical_bytes == 100.0
        assert store.logical_bytes == 200.0
        assert store.dedup_ratio == pytest.approx(2.0)
        assert store.references("x") == 2

    def test_size_mismatch_is_an_error(self):
        store = ContentStore()
        store.add("x", 100.0)
        with pytest.raises(ValueError):
            store.add("x", 200.0)

    def test_release_frees_at_zero_references(self):
        store = ContentStore()
        store.add("x", 100.0)
        store.add("x", 100.0)
        store.release("x")
        assert "x" in store
        store.release("x")
        assert "x" not in store
        assert store.physical_bytes == 0.0
        assert store.logical_bytes == pytest.approx(0.0)

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            ContentStore().release("ghost")

    def test_drop_removes_all_references(self):
        store = ContentStore()
        store.add("x", 100.0)
        store.add("x", 100.0)
        store.drop("x")
        assert "x" not in store
        assert store.logical_bytes == pytest.approx(0.0)
        assert store.physical_bytes == pytest.approx(0.0)

    def test_drop_unknown_raises(self):
        with pytest.raises(KeyError):
            ContentStore().drop("ghost")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ContentStore().add("x", -1.0)

    def test_empty_store_ratio_is_one(self):
        assert ContentStore().dedup_ratio == 1.0

    def test_chunk_dedup_savings_are_marginal(self):
        # The <1% chunk-overlap finding that justified file-level-only
        # dedup (paper section 2.1).
        store = ContentStore()
        store.add("x", 1000.0)
        savings = store.estimate_chunk_dedup_savings()
        assert savings < 0.01 * store.physical_bytes
        with pytest.raises(ValueError):
            store.estimate_chunk_dedup_savings(cross_file_overlap=1.5)

    def test_len_counts_unique_objects(self):
        store = ContentStore()
        store.add("x", 1.0)
        store.add("x", 1.0)
        store.add("y", 2.0)
        assert len(store) == 2


class TestWeekDedup:
    def test_file_level_dedup_pays_and_chunking_would_not(self, workload):
        # Section 2.1: Xuanfeng skips chunk-level dedup for its "low
        # (<1%) storage space savings".
        store = ContentStore()
        for request in workload.requests:
            record = workload.catalog[request.file_id]
            store.add(record.file_id, record.size)
        file_level_savings = store.logical_bytes - store.physical_bytes
        chunk_extra = store.estimate_chunk_dedup_savings()
        # Requests repeat files ~7x...
        assert store.dedup_ratio > 3.0
        # ...while chunking would reclaim under 1% more.
        assert chunk_extra < 0.01 * store.physical_bytes
        assert chunk_extra < 0.01 * file_level_savings
