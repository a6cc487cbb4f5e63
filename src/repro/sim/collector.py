"""Pausing CPython's cycle collector around acyclic bulk allocation.

Building a week (generation or trace read) and replaying it through the
cloud allocate hundreds of thousands of long-lived objects that form no
reference cycles: records, task results, fetch flows.  Reference
counting frees everything these layers drop, so the cyclic collector
can find nothing there -- yet its allocation-count thresholds trigger
hundreds of young collections and several full ones that walk every
live result again and again (about a quarter of a scale-0.02 replay).

:func:`paused` switches the collector off for such a block and, on
exit, promotes every survivor to the oldest generation in O(1)
(``gc.freeze()`` then ``gc.unfreeze()``: two list splices), so the
next young collection does not walk the block's objects either.  The
acyclicity it relies on is pinned in ``tests/test_sim_collector.py``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused() -> Iterator[None]:
    """Run the block with the cycle collector off, then promote survivors.

    A no-op when the collector is already disabled, so nesting costs
    nothing and a caller that manages the collector itself keeps that
    control.  When the caller holds frozen objects
    (``gc.get_freeze_count() > 0``) survivors are not promoted, since
    ``gc.unfreeze()`` would release the caller's frozen objects too.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()
