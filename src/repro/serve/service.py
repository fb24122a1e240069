"""The request front: concurrent small cleans on one warm session.

:class:`BCleanService` is the serving shape the ROADMAP's north star
names — a fitted engine held resident, many concurrent ``submit()``
calls, one warm pool.  Mechanics per tick:

1. Submitting threads enqueue :class:`~repro.serve.batch.CleanRequest`
   objects and block on their events.
2. A single batcher thread wakes, lingers briefly so concurrent
   submitters coalesce, cuts a micro-batch
   (:func:`~repro.serve.batch.take_batch`), and concatenates the
   request tables into one block.
3. The block runs through the staged pipeline as **one chunk on the
   engine's resident session** — one ``ChunkView`` dispatch on the
   already-warm pool, signatures deduplicated across all requests of
   the tick, recurring signatures answered by the session's
   competition cache with zero dispatch.
4. The combined repairs demultiplex back onto the requests by row
   range (:func:`~repro.serve.batch.split_results`) and every waiter
   is released with its own :class:`~repro.core.repairs.CleaningResult`.

Amortisation is the point: across N requests the service holds
``pools_created == 1`` and ``snapshot_ships == 1`` (visible in
:meth:`BCleanService.diagnostics` and in each result's
``diagnostics["serve"]``), and repairs are byte-identical to a
standalone serial ``clean()`` of the same rows — batching, like every
other scheduling choice in the exec subsystem, is invisible in the
results.

Concurrency contract: ``submit()`` is thread-safe; everything else
(including the engine itself while the service is open) belongs to the
service.  Per-request effort counters beyond ``cells_total`` /
``repairs_made`` are not attributable after cross-request dedup — the
batch-level counters live in ``diagnostics["serve"]``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from typing import Sequence

from repro.core.config import BCleanConfig
from repro.core.engine import BClean
from repro.core.repairs import CleaningResult, CleaningStats
from repro.dataset.table import Table
from repro.errors import CleaningError
from repro.exec.stream import StreamDriver
from repro.obs.tracer import clock
from repro.serve.batch import (
    CleanRequest,
    concat_tables,
    split_results,
    take_batch,
)

#: trace-track base of per-request spans — far above the driver track
#: and any worker pid, so request latency tracks never collide
SERVE_TID_BASE = 1 << 24

#: rows per micro-batch tick (a single larger request still runs whole)
DEFAULT_MAX_BATCH_ROWS = 4096

#: how long the batcher lingers before cutting a tick, so submissions
#: racing in together share one dispatch
DEFAULT_LINGER_SECONDS = 0.002


class BCleanService:
    """Serve many concurrent cleans from one fitted, resident engine.

    Parameters
    ----------
    engine:
        A fitted :class:`~repro.core.engine.BClean` on the columnar
        path.  The service opens (or joins) the engine's resident
        session and holds its own reference on it.
    executor / n_jobs:
        Scheduling overrides for the service's streams; default to the
        engine config's.  Scoring knobs always come from the engine —
        they are frozen in the session's snapshot.
    max_batch_rows:
        Tick size bound (requests are never split across ticks).
    linger_seconds:
        Coalescing window before a tick is cut; 0 dispatches eagerly.
    close_session_on_exit:
        Also drop the *engine's* resident-session reference in
        :meth:`close` (the default — the common topology is one
        service per engine; pass ``False`` to keep the pool warm for
        direct ``engine.clean()`` calls afterwards).
    """

    def __init__(
        self,
        engine: BClean,
        executor: str | None = None,
        n_jobs: int | None = None,
        max_batch_rows: int = DEFAULT_MAX_BATCH_ROWS,
        linger_seconds: float = DEFAULT_LINGER_SECONDS,
        close_session_on_exit: bool = True,
    ):
        if engine.bn is None or engine.table is None:
            raise CleaningError("fit() must be called before serving")
        self._engine = engine
        self._schema = engine.table.schema
        self._n_cols = len(self._schema)
        overrides: dict = {"chunk_rows": None}
        if executor is not None:
            overrides["executor"] = executor
        if n_jobs is not None:
            overrides["n_jobs"] = n_jobs
        #: the service's stream config: one chunk per tick, scheduling
        #: knobs possibly overridden, scoring knobs the engine's
        self._cfg: BCleanConfig = replace(engine.config, **overrides)
        self._max_batch_rows = max(1, int(max_batch_rows))
        self._linger = max(0.0, float(linger_seconds))
        self._close_engine_session = close_session_on_exit
        self._tracer = engine._obs
        # The warm heart: the engine-held resident session, plus the
        # service's own reference so an engine-side close_session()
        # cannot tear the pool down under in-flight batches.
        self._session = engine.open_session(n_jobs=n_jobs).acquire()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: deque[CleanRequest] = deque()
        self._closed = False
        self._finalized = False
        self._next_id = 0
        self._batches = 0
        self._requests = 0
        self._rows = 0
        self._thread = threading.Thread(
            target=self._loop, name="bclean-serve", daemon=True
        )
        self._thread.start()

    # -- request side ------------------------------------------------------------

    def submit(
        self,
        rows: Table | Sequence[Sequence] | Sequence[dict],
        timeout: float | None = None,
    ) -> CleaningResult:
        """Clean ``rows`` (a Table, row sequences, or dicts under the
        fitted schema); blocks until this request's result is ready.

        Thread-safe: concurrent submissions coalesce into shared
        micro-batch ticks.  The result is exactly what a standalone
        serial ``clean()`` of the same rows would return — same
        repairs, same cleaned cells, request-local row indices.
        """
        table = self._as_table(rows)
        if table.n_rows == 0:
            return CleaningResult(
                table.copy(), [], CleaningStats(), diagnostics={"serve": {}}
            )
        with self._cond:
            if self._closed:
                raise CleaningError("BCleanService is closed")
            request = CleanRequest(self._next_id, table)
            self._next_id += 1
            self._pending.append(request)
            self._cond.notify()
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span(
                "serve.request",
                cat="serve",
                tid=SERVE_TID_BASE + request.request_id,
                request=request.request_id,
                rows=table.n_rows,
            ):
                finished = request.done.wait(timeout)
        else:
            finished = request.done.wait(timeout)
        if not finished:
            # Withdraw the request if no tick has taken it yet, so a
            # caller that gave up never has its rows cleaned later.
            with self._cond:
                if any(r is request for r in self._pending):
                    self._pending.remove(request)
            raise CleaningError(
                f"request {request.request_id} timed out after {timeout}s"
            )
        if request.error is not None:
            raise request.error
        return request.result

    def _as_table(self, rows) -> Table:
        if isinstance(rows, Table):
            if list(rows.schema.names) != list(self._schema.names):
                raise CleaningError(
                    "request schema does not match the served model: "
                    f"{list(rows.schema.names)} vs {list(self._schema.names)}"
                )
            return rows
        rows = list(rows)
        if rows and isinstance(rows[0], dict):
            return Table.from_dicts(self._schema, rows)
        return Table.from_rows(self._schema, rows)

    # -- batcher side ------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
            if self._linger > 0:
                # Outside the lock: submitters racing in during the
                # linger join this tick instead of waiting out a full
                # pipeline pass.
                time.sleep(self._linger)
            with self._cond:
                batch = take_batch(self._pending, self._max_batch_rows)
            if not batch:
                continue
            try:
                self._run_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - must release waiters
                for request in batch:
                    request.fail(exc)

    def _run_batch(self, requests: list[CleanRequest]) -> None:
        """One tick: concatenate → one pipeline pass on the resident
        session → demultiplex."""
        engine = self._engine
        tracer = self._tracer
        batch_id = self._batches
        self._batches += 1
        combined = concat_tables(self._schema, [r.table for r in requests])
        stats = CleaningStats()
        repairs: list = []
        cleaned = combined.copy()
        start = clock()
        with tracer.span(
            "serve.batch",
            cat="serve",
            batch=batch_id,
            requests=len(requests),
            rows=combined.n_rows,
        ):
            driver = StreamDriver(
                engine,
                engine._columnar_scorer(),
                tracer=tracer,
                session=self._session,
                config=self._cfg,
            )
            driver.clean_table(combined, False, stats, cleaned, repairs)
        seconds = clock() - start
        session = self._session
        cache = session.competition_cache
        serve_common = {
            "batch_id": batch_id,
            "batch_requests": len(requests),
            "batch_rows": combined.n_rows,
            "pools_created": session.pools_created,
            "snapshot_ships": session.snapshot_ships,
        }
        if cache is not None:
            serve_common.update(cache.stats())
        self._requests += len(requests)
        self._rows += combined.n_rows
        for request, (own_cleaned, own_repairs) in zip(
            requests, split_results(requests, cleaned, repairs)
        ):
            request_stats = CleaningStats(
                cells_total=request.n_rows * self._n_cols,
                repairs_made=len(own_repairs),
                clean_seconds=seconds,
                fit_seconds=engine._fit_seconds,
            )
            request.resolve(
                CleaningResult(
                    own_cleaned,
                    own_repairs,
                    request_stats,
                    diagnostics={
                        "columnar": True,
                        "serve": {
                            "request_id": request.request_id,
                            **serve_common,
                        },
                    },
                )
            )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Drain pending requests, stop the batcher, and release the
        service's session reference (idempotent)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join()
        if self._finalized:
            return
        self._finalized = True
        self._session.release()
        if self._close_engine_session:
            self._engine.close_session()

    def __enter__(self) -> "BCleanService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def session(self):
        """The resident :class:`~repro.exec.session.ExecSession` the
        service dispatches on (shared with the engine)."""
        return self._session

    def diagnostics(self) -> dict:
        """Service-level amortisation counters: a healthy process-pool
        service shows ``pools_created == 1`` / ``snapshot_ships == 1``
        however many requests and batches ran, with ``cache_hits``
        counting competitions answered without any dispatch."""
        session = self._session
        out = {
            "requests": self._requests,
            "batches": self._batches,
            "rows": self._rows,
            "executor": self._cfg.executor,
            "pools_created": session.pools_created,
            "snapshot_ships": session.snapshot_ships,
            "flags": session.flags(),
        }
        if session.competition_cache is not None:
            out.update(session.competition_cache.stats())
        return out
