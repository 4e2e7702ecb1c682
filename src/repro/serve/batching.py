"""Micro-batching of concurrent requests into one vectorized evaluation.

Closed-form hardware availability queries are tiny — a handful of scalar
parameters in, one float out — so answering each concurrent request with
its own numpy call wastes the vectorized kernels in
:mod:`repro.perf.vectorized`.  :class:`MicroBatcher` instead collects the
requests that arrive within a short window (or until the batch is full)
and lowers them into **one** array call; each waiter then receives its own
element of the result.

Because the lowered kernels are elementwise over their parameter arrays,
a batched evaluation is *exactly* equal — not just close — to evaluating
each request alone; ``tests/test_serve_cache.py`` pins that equivalence.

The batcher is generic: it is constructed with a ``lower`` callable taking
a list of payloads and returning a list of results of the same length.
Failures of ``lower`` propagate to every request in the batch and are not
retried.

When a trace context (:func:`repro.obs.trace.current_trace`) is in
scope at ``submit`` time it is captured alongside the payload — the flush
runs from a ``call_later`` callback in a *different* context, so the
ambient scope is gone by then — and at flush each waiter's trace is
attributed ``batch_assembly`` (enqueue → flush start: time spent waiting
for the window) and ``kernel_compute`` (the whole lowered call: every
waiter paid for it in wall time, regardless of batch size).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Sequence

from repro.errors import ParameterError, ServeError
from repro.obs.trace import TraceContext, current_trace

__all__ = ["DEFAULT_WINDOW_SECONDS", "DEFAULT_MAX_BATCH", "MicroBatcher"]

#: Default gather window: long enough to coalesce a concurrent burst,
#: short enough to be invisible next to network round-trip time.
DEFAULT_WINDOW_SECONDS = 0.002

#: Default batch-size bound; a full batch flushes immediately.
DEFAULT_MAX_BATCH = 256


class MicroBatcher:
    """Collects requests for ``window_seconds`` and lowers them together.

    ``lower`` is called with the list of pending payloads (in arrival
    order) and must return one result per payload, in order.  It runs on
    the event loop; CPU-light numpy kernels over a few hundred elements
    are fine there, and ``lower`` may itself be wrapped in
    ``asyncio.to_thread`` by the caller when it is not.
    """

    def __init__(
        self,
        lower: Callable[[list[Any]], Sequence[Any]],
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        if window_seconds < 0:
            raise ParameterError(
                f"window_seconds must be >= 0, got {window_seconds}"
            )
        if max_batch < 1:
            raise ParameterError(f"max_batch must be >= 1, got {max_batch}")
        self._lower = lower
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self._pending: list[
            tuple[Any, asyncio.Future, TraceContext | None, float]
        ] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self.batches = 0
        self.requests = 0
        self.largest_batch = 0

    async def submit(self, payload: Any) -> Any:
        """Enqueue one payload and await its element of the batch result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append(
            (payload, future, current_trace(), time.perf_counter())
        )
        self.requests += 1
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            if self.window_seconds == 0.0:
                self._flush_handle = loop.call_soon(self._flush)
            else:
                self._flush_handle = loop.call_later(
                    self.window_seconds, self._flush
                )
        return await future

    def _flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.batches += 1
        if len(batch) > self.largest_batch:
            self.largest_batch = len(batch)
        payloads = [payload for payload, _, _, _ in batch]
        flush_started = time.perf_counter()
        try:
            results = self._lower(payloads)
        except BaseException as error:  # propagate to every waiter
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(error)
            return
        kernel_seconds = time.perf_counter() - flush_started
        if len(results) != len(batch):
            mismatch = ServeError(
                f"batch lowering returned {len(results)} results for "
                f"{len(batch)} requests"
            )
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(mismatch)
            return
        for (_, future, trace, enqueued), result in zip(batch, results):
            if trace is not None:
                trace.add_segment("batch_assembly", flush_started - enqueued)
                trace.add_segment("kernel_compute", kernel_seconds)
                trace.annotate(batch_size=len(batch))
            if not future.done():
                future.set_result(result)

    async def drain(self) -> None:
        """Flush anything pending now (used at shutdown and in tests)."""
        self._flush()
        await asyncio.sleep(0)

    def counters(self) -> dict[str, int]:
        """Current counter values, keyed for the metrics registry."""
        return {
            "serve.batch.batches": self.batches,
            "serve.batch.requests": self.requests,
            "serve.batch.largest": self.largest_batch,
        }
