"""Same-tick request coalescing for the asyncio serving tier.

Under load, many ``/decide`` requests become readable in the same event
-loop iteration.  Handling them one by one pays the decision pipeline's
fixed costs (breaker admission, clock read, allocator/database lock)
once *per request*; the :class:`DecisionBatcher` pays them once per
*tick*: every request submitted while the loop is busy is queued, and a
``call_soon`` drain evaluates the whole queue through
:meth:`~repro.core.webapp.OdrWebApp.handle_batch` in one pass.

The pass runs inline on the loop.  ``handle_batch`` is pure Python
under the GIL, so a worker thread would add no parallelism -- only a
task, a thread-pool handoff and a cross-thread wake-up per batch.  A
decision is sub-millisecond and :data:`DEFAULT_MAX_BATCH` bounds one
pass, which bounds how long the loop stalls.

Latency cost is bounded by construction: the drain callback is
scheduled the moment the first request of a tick arrives, so an idle
server still answers in the same iteration -- batching only *appears*
when concurrency does.

Each entry carries a completion callback that receives its Response:
the serving tier's connection writes the answer from it directly, with
no future and no task to resume a loop turn later.  :meth:`submit` is
the awaitable form for callers that hold no connection.

Deadline budgets propagate through the batcher: an entry whose
``X-Deadline-Ms`` budget has already expired is answered ``504`` at
drain time (no decision work for an answer nobody waits for), and the
live entries' deadlines ride into ``handle_batch`` so the policy layer
can rank against the remaining budget.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.core.webapp import OdrWebApp, Response, internal_error
from repro.obs.registry import NOOP, AnyRegistry
from repro.serve.admission import deadline_response

#: Upper bound on one coalesced pass, so a drain never monopolises the
#: loop; the remainder re-schedules itself onto the next tick.
DEFAULT_MAX_BATCH = 512

#: The completion callback of one request.
Done = Callable[[Response], None]


def resolver(future: "asyncio.Future[Response]") -> Done:
    """A :data:`Done` that resolves ``future`` unless it was
    cancelled."""
    def resolve(response: Response) -> None:
        if not future.done():
            future.set_result(response)
    return resolve


class DecisionBatcher:
    """Coalesces concurrently-arriving requests into one batch pass."""

    def __init__(self, app: OdrWebApp, metrics: AnyRegistry = NOOP,
                 max_batch: int = DEFAULT_MAX_BATCH):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.app = app
        self.max_batch = max_batch
        self._metrics = metrics
        self._batch_size = metrics.histogram("repro_serve_batch_size")
        self._pending: list[tuple[str, str, Optional[float], Done]] = []
        self._drain_scheduled = False
        self.batches = 0
        self.batched_requests = 0
        self.expired = 0

    def enqueue(self, path: str, cookie_header: str,
                deadline: Optional[float], done: Done) -> None:
        """Queue one request; the drain calls ``done`` with its
        Response.

        ``deadline`` is an absolute ``time.monotonic()`` instant after
        which the caller no longer wants the answer.
        """
        self._pending.append((path, cookie_header, deadline, done))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            asyncio.get_running_loop().call_soon(self._drain)

    def submit(self, path: str, cookie_header: str,
               deadline: Optional[float] = None
               ) -> "asyncio.Future[Response]":
        """:meth:`enqueue` with a future that resolves with the
        Response."""
        future = asyncio.get_running_loop().create_future()
        self.enqueue(path, cookie_header, deadline, resolver(future))
        return future

    def _drain(self) -> None:
        batch = self._pending[:self.max_batch]
        del self._pending[:self.max_batch]
        if self._pending:
            # Oversized tick: keep draining next iteration.
            asyncio.get_running_loop().call_soon(self._drain)
        else:
            self._drain_scheduled = False
        # Expired entries are answered here, before evaluation: they
        # hold an admission slot but cost no decision work.
        now = time.monotonic()
        live: list[tuple[str, str, Optional[float]]] = []
        dones: list[Done] = []
        for path, cookie, deadline, done in batch:
            if deadline is not None and now > deadline:
                self.expired += 1
                self._metrics.counter("repro_serve_deadline_sheds_total",
                                      stage="batch").inc()
                done(deadline_response("batch"))
            else:
                live.append((path, cookie, deadline))
                dones.append(done)
        if not live:
            return
        self.batches += 1
        self.batched_requests += len(live)
        self._batch_size.observe(float(len(live)))
        try:
            responses = self.app.handle_batch(live)
        except Exception as error:   # noqa: BLE001 - boundary
            responses = [internal_error(error)] * len(live)
        for done, response in zip(dones, responses):
            done(response)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches \
            else 0.0

    @property
    def pending(self) -> int:
        return len(self._pending)
