"""File types and the type mix of offline-downloading requests.

Paper section 3: 75% of requests are for videos, 15% for software
packages, and the small-file quartile is "demo videos, pictures,
documents, and small software packages".  Type is sampled conditionally
on the file's size class so both the global mix and the small-file
composition match.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class FileType(enum.Enum):
    """Coarse content type recorded in the workload trace."""

    VIDEO = "video"
    SOFTWARE = "software"
    DOCUMENT = "document"
    IMAGE = "image"
    ARCHIVE = "archive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_SMALL_MIX: dict[FileType, float] = {
    FileType.VIDEO: 0.33,      # demo videos
    FileType.SOFTWARE: 0.27,   # small packages
    FileType.DOCUMENT: 0.20,
    FileType.IMAGE: 0.15,
    FileType.ARCHIVE: 0.05,
}

_LARGE_MIX: dict[FileType, float] = {
    FileType.VIDEO: 0.89,      # HD movies and episodes dominate
    FileType.SOFTWARE: 0.11 * 0.91,
    FileType.ARCHIVE: 0.11 * 0.09,
    FileType.DOCUMENT: 0.0,
    FileType.IMAGE: 0.0,
}
# With 25% small files: video = .25*.33 + .75*.89 = 0.750, software =
# .25*.27 + .75*.100 = 0.143 -- the paper's 75% / 15% split.


@dataclass(frozen=True)
class FileTypeModel:
    """Samples a file's type given whether it is in the small-size class."""

    small_mix: dict[FileType, float] = field(
        default_factory=lambda: dict(_SMALL_MIX))
    large_mix: dict[FileType, float] = field(
        default_factory=lambda: dict(_LARGE_MIX))

    def __post_init__(self):
        import numpy as np
        tables = {}
        for name, mix in (("small_mix", self.small_mix),
                          ("large_mix", self.large_mix)):
            total = sum(mix.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"{name} sums to {total}, expected 1")
            types = list(mix.keys())
            weights = np.array([mix[t] for t in types])
            probs = weights / weights.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            tables[name == "small_mix"] = (types, cdf)
        # Frozen dataclass with dict fields (unhashable), so the
        # inverse-CDF tables live on the instance rather than in an
        # lru_cache.  The CDF mirrors Generator.choice's internal
        # construction, keeping the stream bit-identical.
        object.__setattr__(self, "_tables", tables)

    def sample(self, is_small: bool, rng: np.random.Generator) -> FileType:
        types, cdf = self._tables[is_small]
        index = cdf.searchsorted(rng.random(), side="right")
        return types[min(index, len(types) - 1)]
