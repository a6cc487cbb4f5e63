"""Canonical digests: the exact identity of a reduced result.

The backend matrix digests its merged scorecard and the golden
scenarios (:mod:`repro.perf.golden`) digest every pinned output with
:func:`canonical_digest`; :func:`hex_floats` makes such a digest exact,
so two results digest equal iff every count and every bit of every
float agree.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "canonical_digest",
    "hex_floats",
]


def canonical_digest(payload: Any) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``payload``."""
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def hex_floats(value: Any) -> Any:
    """Floats as exact ``float.hex`` strings, so a digest has no
    formatting slack; dicts and lists are walked."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hex_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [hex_floats(item) for item in value]
    return value
