"""The content universe: unique files and their attributes.

Each catalogued file couples the properties the rest of the system
consumes: size (Figure 5 model), type (section 3 mix), transfer protocol
(68% BitTorrent / 19% eMule / 13% HTTP+FTP), and weekly demand (the
popularity model).  File identity is an MD5-style content ID, matching
Xuanfeng's content-addressed catalogue.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.storage.dedup import content_id
from repro.transfer.protocols import Protocol
from repro.workload.columnar import CachedRows, Column, ColumnTable
from repro.workload.filetypes import FileTypeModel
from repro.workload.popularity import (
    PopularityClass,
    PopularityModel,
    class_shares,
)
from repro.workload.records import CatalogFile
from repro.workload.sizes import FileSizeModel

#: Protocol mix over files (paper section 3).
PROTOCOL_MIX: tuple[tuple[Protocol, float], ...] = (
    (Protocol.BITTORRENT, 0.68),
    (Protocol.EMULE, 0.19),
    (Protocol.HTTP, 0.09),
    (Protocol.FTP, 0.04),
)


class QuotaDeck:
    """Stratified categorical sampling: deal items from a shuffled deck.

    Drawing i.i.d. protocols per file makes *request-level* shares very
    noisy at small scale (a single popular file carries hundreds of
    requests), so the catalog deals protocols from a deck holding the
    exact target proportions per 100 cards, reshuffled when exhausted.
    Marginal probabilities are unchanged; variance collapses.
    """

    def __init__(self, items: tuple, weights: tuple, deck_size: int = 100):
        if len(items) != len(weights) or not items:
            raise ValueError("items and weights must align and be "
                             "non-empty")
        total = sum(weights)
        counts = [int(round(weight / total * deck_size))
                  for weight in weights]
        # Fix rounding drift on the largest category.
        counts[counts.index(max(counts))] += deck_size - sum(counts)
        self._deck = [item for item, count in zip(items, counts)
                      for _ in range(count)]
        self._position = len(self._deck)   # force shuffle on first draw

    def draw(self, rng: np.random.Generator):
        if self._position >= len(self._deck):
            rng.shuffle(self._deck)  # type: ignore[arg-type]
            self._position = 0
        item = self._deck[self._position]
        self._position += 1
        return item


class FileCatalog(CachedRows):
    """The unique-file universe of a synthetic week: the columns of a
    ``catalog.col`` file (:class:`~repro.workload.columnar.CachedRows`),
    whose rows are built on first access, by row or by content id."""

    record_type = CatalogFile

    def __init__(self, size_model: Optional[FileSizeModel] = None,
                 type_model: Optional[FileTypeModel] = None,
                 popularity_model: Optional[PopularityModel] = None,
                 table: Optional[ColumnTable] = None):
        self.size_model = size_model or FileSizeModel()
        self.type_model = type_model or FileTypeModel()
        self.popularity_model = popularity_model or PopularityModel()
        super().__init__(table)

    def _set_blocks(self, blocks: dict[str, Column]) -> None:
        super()._set_blocks(blocks)
        self._by_file_id: Optional[dict[str, CatalogFile]] = None
        self._ranking: Optional[np.ndarray] = None

    def generate(self, count: int, rng: np.random.Generator) -> None:
        """Append ``count`` unique files.  Per file, in stream order:
        its size, its protocol and type off the quota decks, and its
        weekly demand; the draws are scalar (a file's draw count
        varies), everything else is built as whole columns."""
        if count < 0:
            raise ValueError("count must be non-negative")
        # The decks deal encoded values; item order decides the deal.
        draw_protocol = QuotaDeck(
            tuple(protocol.value.encode() for protocol, _ in PROTOCOL_MIX),
            tuple(share for _protocol, share in PROTOCOL_MIX)).draw
        type_decks = {
            is_small: QuotaDeck(tuple(kind.value.encode() for kind in mix),
                                tuple(mix.values()))
            for is_small, mix in ((True, self.type_model.small_mix),
                                  (False, self.type_model.large_mix))}
        sample_size = self.size_model.sample
        sample_demand = self.popularity_model.sample_weekly_demand
        sizes, protocols, types, demands = [], [], [], []
        for _ in range(count):
            size, is_small = sample_size(rng)
            sizes.append(size)
            protocols.append(draw_protocol(rng))
            types.append(type_decks[is_small].draw(rng))
            demands.append(sample_demand(rng))
        start = len(self)
        file_ids = np.array([content_id(f"file-{index}")
                             for index in range(start, start + count)],
                            dtype="S32")
        protocols = np.array(protocols, dtype="S")
        self._append({
            "file_id": (file_ids, None),
            "size": (np.array(sizes, dtype="<f8"), None),
            "file_type": (np.array(types, dtype="S"), None),
            "protocol": (protocols, None),
            "weekly_demand": (np.array(demands, dtype="<i8"), None),
            "source_url": (np.char.add(np.char.add(
                protocols, b"://origin/"), file_ids), None),
        })

    def set_demands(self, demands: np.ndarray) -> None:
        """Replace the weekly demand column; rows built from the old one
        are dropped."""
        self._set_blocks({**self.blocks(), "weekly_demand": (
            np.array(demands, dtype="<i8"), None)})

    # -- indexing -------------------------------------------------------------

    def _by_id(self) -> dict[str, CatalogFile]:
        if self._by_file_id is None:
            self._by_file_id = {record.file_id: record
                                for record in self.rows()}
        return self._by_file_id

    def get(self, file_id: str) -> Optional[CatalogFile]:
        return self._by_id().get(file_id)

    def __getitem__(self, file_id: str) -> CatalogFile:
        return self._by_id()[file_id]

    def demands(self) -> np.ndarray:
        """The weekly demand column (shared with snapshots: do not write
        into it)."""
        return self.column("weekly_demand")

    def ranking(self) -> np.ndarray:
        """Rows by weekly demand, highest first, ties by file id:
        computed once per demand column."""
        if self._ranking is None:
            self._ranking = np.lexsort((self.column("file_id"),
                                        -self.demands()))
        return self._ranking

    def total_demand(self) -> int:
        """Total weekly requests implied by the catalog."""
        return int(self.demands().sum())

    def class_file_shares(self) -> dict[PopularityClass, float]:
        """Fraction of files per popularity class."""
        return class_shares(self.demands())

    def class_request_shares(self) -> dict[PopularityClass, float]:
        """Fraction of requests (demand-weighted) per popularity class."""
        return class_shares(self.demands(), self.demands())

