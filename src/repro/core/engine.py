"""The BClean cleaning engine (Algorithm 1 and its optimised variants).

For every cell the engine scores the incumbent value and a set of
candidate repairs with

``p(c) = log BN[A_j](c) + log CS[A_j](c)``   (Algorithm 1, line 4/6)

subject to ``UC(c) = 1``, where the BN term is either the full joint
log-probability (BASIC mode — the paper's unoptimised variant whose
cost Table 7 reports) or the Markov-blanket score (PI / PIP, §6.1), and
the CS term is the compensatory score of §5 mapped to log-space.

Evidence always comes from the *observed* dataset D, never from earlier
repairs — Algorithm 1 writes into a separate D*, which is what prevents
the error-amplification cascade §5 describes.

Two cleaning paths produce identical repair decisions:

- the **columnar fast path** (default, ``BCleanConfig.use_columnar``):
  the table is interned once (:class:`~repro.dataset.encoding.TableEncoding`)
  and cleaned by the staged pipeline of :mod:`repro.exec.stream` —
  ingest → encode → detect → plan → execute → merge → emit — whose
  row chunks become planned, sharded jobs executed by the
  :mod:`repro.exec` subsystem: cost-balanced shards
  (:mod:`repro.exec.planner`), pluggable serial / thread / process
  worker backends (``BCleanConfig.executor``; ``"auto"`` picks from
  the plan's cost estimate), batch scoring of stacked competitions
  inside each shard (:meth:`repro.exec.state.FitState.run_shard`), and
  a deterministic merge of the per-shard repair arrays
  (:mod:`repro.exec.merge`).  With ``BCleanConfig.chunk_rows`` set
  (or via :meth:`BClean.clean_csv`) the same stages run one row block
  at a time — out-of-core cleaning with repairs byte-identical to the
  whole-table run.  Foreign tables sharing the fitted schema stay on
  this path through incremental encoding
  (:meth:`~repro.dataset.encoding.TableEncoding.encode_table`);
- the **scalar reference path**: the per-cell dict walk of the original
  implementation, kept as the oracle the columnar path is tested
  against, and used automatically when the fast path cannot apply
  (merged-node compositions, a foreign table with a different schema,
  or a fitted table mutated since ``fit()``).

``fit()`` follows the same design: on the columnar path every fit runs
through the mergeable sufficient statistics of
:mod:`repro.exec.fit_stream` (the table's distinct coded rows with
multiplicities), and the co-occurrence build, structure-learner scores,
and CPT counting all run from them — optionally sharded over the
``BCleanConfig.fit_executor`` worker backends — producing statistics
byte-identical to the scalar dict-walking fit, which remains the oracle
(see :meth:`BClean.fit`).

Both paths share candidate order, tie-breaking, and float accumulation
order; the tolerated divergences are transcendental rounding
(``numpy``'s vectorised log/sqrt may differ from ``math``'s by 1 ulp on
some platforms) and, in BASIC mode only, the regrouped joint summation
(blanket + constant rest, ~1e-12 — see
:meth:`~repro.bayesnet.model.ColumnarNetScorer.joint_log_scores_batch`) —
both far below every decision margin.  The equivalence suite asserts
identical repair lists across both paths in all modes.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from repro.bayesnet.cpt import cell_key
from repro.bayesnet.dag import DAG
from repro.bayesnet.model import ColumnarNetScorer, DiscreteBayesNet
from repro.bayesnet.structure.chowliu import chow_liu_tree
from repro.bayesnet.structure.fdx import fdx_structure
from repro.bayesnet.structure.hillclimb import hill_climb
from repro.bayesnet.structure.mmhc import mmhc
from repro.bayesnet.structure.pc import pc_algorithm
from repro.constraints.registry import UCRegistry
from repro.core.composition import AttributeComposition
from repro.core.compensatory import CompensatoryScorer, log_compensatory
from repro.core.config import BCleanConfig, InferenceMode
from repro.core.confidence import table_confidences
from repro.core.cooccurrence import CooccurrenceIndex, confidence_weights
from repro.core.partition import SubNetwork, partition, partition_statistics
from repro.core.pruning import DomainPruner, should_skip_cell
from repro.core.repairs import CleaningResult, CleaningStats, Repair, Stopwatch
from repro.dataset.domain import DomainIndex
from repro.dataset.encoding import TableEncoding
from repro.dataset.table import Cell, Table, is_null
from repro.errors import CPTError, CleaningError, InferenceError
from repro.exec import (
    ExecSession,
    StreamDriver,
    build_fit_state,
    sharded_family_arrays,
    sharded_pair_arrays,
)
from repro.exec.cache import CompetitionCache
from repro.exec.fit_stream import (
    DEFAULT_CHUNK_ROWS,
    SuffStats,
    estimate_stream_fit_cost,
    suffstats_from_csv,
    suffstats_from_table,
)
from repro.exec.planner import AUTO_FIT_COST_THRESHOLD, CACHE_MAX_ENTRIES
from repro.exec.state import FitState
from repro.obs import NULL_TRACER, Tracer


class BClean:
    """The BClean system: fit a BN + compensatory model, then clean.

    Typical use::

        engine = BClean(BCleanConfig.pi(), constraints=registry)
        engine.fit(dirty_table)
        result = engine.clean()
        cleaned = result.cleaned
    """

    def __init__(
        self,
        config: BCleanConfig | None = None,
        constraints: UCRegistry | None = None,
    ):
        self.config = config or BCleanConfig()
        self.constraints = constraints or UCRegistry()
        self.table: Table | None = None
        self.dag: DAG | None = None
        self.bn: DiscreteBayesNet | None = None
        self.composition: AttributeComposition | None = None
        self._fit_seconds = 0.0
        self._fit_diag: dict = {}
        self._fit_session: ExecSession | None = None
        # Sufficient-statistics state (see fit_stats / fit_update): the
        # mergeable statistics every columnar fit learns from (None
        # after the scalar oracle fit; set_network() refits CPTs from
        # them too), whether the engine holds only their distinct-row
        # table (csv mode, or after fit_update), and whether
        # fit_update() has folded in rows the structure has not been
        # re-scored against yet.
        self._suffstats: SuffStats | None = None
        self._stream_fitted = False
        self._structure_stale = False
        # The engine-held resident execution session (see open_session):
        # one warm pool + one shipped snapshot + one competition memo
        # shared by every clean until close_session() or a refit.
        self._resident: ExecSession | None = None
        # The engine's observability tracer: the shared no-op singleton
        # unless config.trace/config.profile (or a per-call trace=)
        # turns tracing on — see repro.obs for the zero-cost contract.
        self._obs = NULL_TRACER

    # -- fitting -----------------------------------------------------------------

    def fit(
        self,
        table: Table,
        dag: DAG | None = None,
        composition: AttributeComposition | None = None,
        encoding: TableEncoding | None = None,
        chunk_rows: int | None = None,
    ) -> "BClean":
        """Learn the BN and all statistics from the observed dataset.

        With ``use_columnar`` and the singleton composition there is one
        fit path: ``table`` is folded into the mergeable sufficient
        statistics of :mod:`repro.exec.fit_stream` — its distinct rows
        with multiplicities, in one block or in blocks of
        ``chunk_rows`` — and :meth:`fit_stats` learns the co-occurrence
        index, the structure, and the CPTs from those weighted counts
        (optionally sharded over the ``fit_executor`` worker backends;
        ``"auto"`` resolves from the distinct-row count).  The engine
        keeps ``table`` itself as the fitted table.  The scalar
        dict-walking fit is retained as the oracle (``use_columnar=False``
        or merged-node compositions; always serial): CPTs are
        byte-identical, and so are the BIC/K2/BDeu structure scores
        (hence hillclimb/chowliu/pc DAGs).  The one tolerated divergence
        is MMHC's vectorised G², whose statistic matches the reference
        walk to ~1e-12 — a p-value landing within an ulp of ``alpha``
        could in principle flip a skeleton edge, so the equivalence
        suite pins DAG identity empirically rather than by construction
        there.

        Parameters
        ----------
        table:
            The dirty dataset D.
        dag:
            Optional pre-built network (e.g. after user interaction);
            its nodes must match the composition's nodes.
        composition:
            Optional attribute grouping (merged nodes).
        encoding:
            Optional pre-built interning of ``table`` (the model
            registry's reload path: an encoding that minted extra codes
            while cleaning foreign tables must keep those codes so the
            reloaded model reproduces the in-memory one's repairs
            byte-identically).  Must describe ``table`` exactly.
        chunk_rows:
            Fold ``table`` in row blocks of this size (defaults to
            ``config.fit_chunk_rows``, else one block).  DAG, CPTs, and
            downstream repairs are byte-identical at every chunk size;
            :meth:`fit_csv` is the out-of-core variant where the table
            itself never materialises.
        """
        chunk = chunk_rows if chunk_rows is not None else self.config.fit_chunk_rows
        if encoding is not None and (
            encoding.n_rows != table.n_rows
            or list(encoding.names) != list(table.schema.names)
        ):
            raise CleaningError(
                "encoding does not describe the fitted table "
                f"({encoding.n_rows}×{len(encoding.names)} vs "
                f"{table.n_rows}×{len(table.schema.names)})"
            )
        scalar = not self.config.use_columnar or (
            composition is not None
            and any(composition.members(n) != (n,) for n in composition.nodes)
        )
        if scalar and chunk is not None:
            raise CleaningError(
                "streaming fit requires the columnar path (use_columnar "
                "with the singleton composition)"
            )
        # A refit invalidates every statistic a resident session's
        # snapshot was built from — close it before anything changes.
        self.close_session()
        if self.config.trace is not None or self.config.profile:
            # One tracer spans fit + every later clean of this engine,
            # so a written trace shows the whole lifecycle; clean()
            # aggregates its own profile from a mark.
            self._obs = Tracer()
        tracer = self._obs
        with Stopwatch(tracer, "fit_seconds") as timer, tracer.span(
            "fit", cat="fit"
        ):
            if scalar:
                self._fit_scalar(table, dag, composition, encoding)
            elif chunk is None:
                self._fit_from_stats(
                    suffstats_from_table(
                        table,
                        max(1, table.n_rows),
                        reservoir_rows=self.config.fit_reservoir_rows,
                    ),
                    dag,
                    table,
                    encoding,
                )
            else:
                with tracer.span(
                    "fit.stream", cat="fit", chunk_rows=int(chunk), source="table"
                ) as span:
                    stats = suffstats_from_table(
                        table,
                        int(chunk),
                        reservoir_rows=self.config.fit_reservoir_rows,
                        tracer=tracer,
                    )
                    span.add(
                        rows=stats.n_rows,
                        distinct=stats.n_distinct,
                        chunks=stats.n_chunks,
                    )
                self._fit_from_stats(stats, dag, table, encoding)
        self._fit_seconds = timer.seconds
        return self

    def _fit_scalar(
        self,
        table: Table,
        dag: DAG | None,
        composition: AttributeComposition | None,
        encoding: TableEncoding | None,
    ) -> None:
        """The oracle fit: the dict-walking co-occurrence build,
        structure learners, and CPT estimation, serial over
        ``table``."""
        tracer = self._obs
        self.table = table
        self.composition = composition or AttributeComposition(
            table.schema.names
        )
        node_table = self.composition.node_table(table)
        self._node_table = node_table
        self._encoding = encoding if encoding is not None else table.encode()
        self._fit_diag = {}
        self._suffstats = None
        self._stream_fitted = False
        self._structure_stale = False
        use_ucs = self.config.use_ucs and self.constraints.n_constraints > 0
        self.confidences = (
            table_confidences(table, self.constraints, self.config.lam)
            if use_ucs
            else None
        )
        with tracer.span("fit.cooccurrence", cat="fit"):
            self.cooc = CooccurrenceIndex(
                table,
                self.confidences,
                tau=self.config.tau,
                beta=self.config.beta,
                encoding=self._encoding,
            )
        with tracer.span(
            "fit.structure", cat="fit", learner=self.config.structure
        ):
            self.dag = dag if dag is not None else self._learn_structure(node_table)
        self._check_dag_nodes(node_table.schema.names)
        with tracer.span("fit.cpts", cat="fit"):
            self.bn = DiscreteBayesNet.fit(
                node_table, self.dag, alpha=self.config.smoothing_alpha
            )
        self._reset_fitted_state(DomainIndex(table))

    def _ensure_fit_tracer(self):
        """The tracer :meth:`fit_csv` and :meth:`fit_stats` report to: a
        fresh one when the config asks for tracing and none is live yet,
        the engine's current tracer otherwise (``fit_update`` spans then
        land in the same trace as the original fit)."""
        if (
            self.config.trace is not None or self.config.profile
        ) and not self._obs.enabled:
            self._obs = Tracer()
        return self._obs

    def fit_csv(
        self,
        src,
        chunk_rows: int | None = None,
        schema=None,
        dag: DAG | None = None,
        delimiter: str = ",",
    ) -> "BClean":
        """Out-of-core fit: stream a CSV into mergeable sufficient
        statistics, one row block resident at a time.

        Each block of ``chunk_rows`` rows (default
        ``config.fit_chunk_rows``, else a bounded default) is folded
        into the accumulating :class:`~repro.exec.fit_stream.SuffStats`
        — distinct-row counts over an incrementally minted encoding,
        plus a bounded reservoir sample for the row-level structure
        learners — and the model is then fitted from those statistics
        by :meth:`fit_stats`.  DAG, CPTs, and downstream repairs are
        byte-identical to fitting the whole CSV in memory, at every
        chunk size and chunk boundary.

        The engine's fitted ``table`` afterwards is the *distinct-row*
        table (weighted by multiplicity); ``clean()`` of that table
        cleans each distinct row once.  Foreign tables (including
        :meth:`clean_csv` over the original file) clean exactly as
        after an in-memory fit.
        """
        chunk = (
            chunk_rows
            if chunk_rows is not None
            else (self.config.fit_chunk_rows or DEFAULT_CHUNK_ROWS)
        )
        if not self.config.use_columnar:
            raise CleaningError(
                "fit_csv() requires the columnar path (use_columnar)"
            )
        tracer = self._ensure_fit_tracer()
        with tracer.span(
            "fit.stream", cat="fit", chunk_rows=int(chunk), source=str(src)
        ) as span:
            stats = suffstats_from_csv(
                src,
                int(chunk),
                schema=schema,
                delimiter=delimiter,
                reservoir_rows=self.config.fit_reservoir_rows,
                tracer=tracer,
            )
            span.add(
                rows=stats.n_rows,
                distinct=stats.n_distinct,
                chunks=stats.n_chunks,
            )
        return self.fit_stats(stats, dag=dag)

    def fit_stats(
        self,
        stats: SuffStats,
        dag: DAG | None = None,
        full_table: Table | None = None,
        encoding: TableEncoding | None = None,
    ) -> "BClean":
        """Fit the model from accumulated sufficient statistics.

        The one columnar fit: :meth:`fit` (which passes the resident
        ``full_table`` the statistics were folded from, so the engine
        keeps cleaning the original rows), :meth:`fit_csv` (no full
        table — the engine adopts the distinct-row table),
        :meth:`fit_update`, :meth:`refresh_structure`, and the model
        registry's streamed reload all end here.  Every statistic — pair
        co-occurrence, structure scores, CPT counts, domains — is
        computed from the distinct rows weighted by their
        multiplicities, which the kernels guarantee bit-identical to a
        walk over every row.  ``encoding`` optionally interns
        ``full_table`` (see :meth:`fit`).
        """
        if not self.config.use_columnar:
            raise CleaningError(
                "streaming fit requires the columnar path (use_columnar)"
            )
        self.close_session()
        tracer = self._ensure_fit_tracer()
        with Stopwatch(tracer, "fit_seconds") as timer, tracer.span(
            "fit", cat="fit", stream=True
        ):
            self._fit_from_stats(stats, dag, full_table, encoding)
        self._fit_seconds = timer.seconds
        return self

    def _fit_from_stats(
        self,
        stats: SuffStats,
        dag: DAG | None,
        full_table: Table | None,
        encoding: TableEncoding | None,
    ) -> None:
        """The body of :meth:`fit_stats` (see there); runs inside the
        caller's ``fit`` span and stopwatch."""
        struct, senc, row_counts, row_firsts = stats.finalize()
        names = struct.schema.names
        n_stream = stats.n_rows
        if full_table is not None and (
            list(full_table.schema.names) != list(names)
            or full_table.n_rows != n_stream
        ):
            raise CleaningError(
                "table does not match the accumulated statistics"
            )
        tracer = self._obs
        if full_table is not None:
            self.table = full_table
            self._encoding = (
                encoding if encoding is not None else stats.encoding_of(full_table)
            )
        else:
            self.table = struct
            self._encoding = senc
        self.composition = AttributeComposition(names)
        self._node_table = self.table
        self._suffstats = stats
        self._stream_fitted = full_table is None
        self._structure_stale = False

        use_ucs = self.config.use_ucs and self.constraints.n_constraints > 0
        # clean() reads per-row confidences of the *fitted* table, so
        # they are computed over it; tuple confidence is a pure function
        # of the row's values, so each struct row takes the value of its
        # first occurrence.
        self.confidences = (
            table_confidences(self.table, self.constraints, self.config.lam)
            if use_ucs
            else None
        )
        struct_conf = self.confidences
        if struct_conf is not None and full_table is not None:
            struct_conf = np.asarray(struct_conf, dtype=np.float64)[row_firsts]
        weights = confidence_weights(
            struct_conf, self.config.tau, self.config.beta, struct.n_rows
        )

        fit_executor = self.config.fit_executor
        n_jobs = self.config.n_jobs or os.cpu_count() or 1
        self._fit_diag = {
            "stream_fit": {
                "n_rows": int(n_stream),
                "n_distinct": int(stats.n_distinct),
                "n_chunks": int(stats.n_chunks),
                "reservoir_exact": bool(stats.reservoir_exact),
            }
        }
        if fit_executor == "auto":
            # The streamed cost model: distinct rows × attribute pairs
            # is what the sharded jobs actually scan.  Small fused
            # tables stay serial — pool spin-up would dwarf the
            # counting passes.
            est = estimate_stream_fit_cost(struct.n_rows, len(names))
            if n_jobs <= 1 or est < AUTO_FIT_COST_THRESHOLD:
                fit_executor = "serial"
            self._fit_diag["auto"] = True
        # One session spans pair counting, the parallel structure
        # search, and CPT counting: the weighted coded columns ship to
        # the workers exactly once.
        self._fit_session = ExecSession(
            build_fit_state(
                senc,
                names,
                weights,
                row_counts=row_counts,
                row_firsts=row_firsts,
                n_rows=n_stream,
            ),
            n_jobs,
            persistent=self.config.persistent_pool,
            tracer=tracer,
        )
        try:
            with tracer.span("fit.cooccurrence", cat="fit"):
                pairs, diag = sharded_pair_arrays(
                    senc,
                    names,
                    weights,
                    fit_executor,
                    n_jobs,
                    session=self._fit_session,
                )
                self._fit_diag.update(
                    {
                        "fit_executor": diag["fit_executor"],
                        "n_jobs": diag["n_jobs"],
                        "pair_tasks": diag["n_pair_tasks"],
                        "pair_shards": diag["n_shards"],
                    }
                )
                self._merge_fit_flags(diag)
                # A full table carries every row itself; the struct
                # table needs its multiplicities.
                multiplicity = (
                    {}
                    if full_table is not None
                    else {
                        "row_counts": row_counts,
                        "row_firsts": row_firsts,
                        "n_rows": n_stream,
                    }
                )
                self.cooc = CooccurrenceIndex(
                    self.table,
                    self.confidences,
                    tau=self.config.tau,
                    beta=self.config.beta,
                    encoding=self._encoding,
                    pair_arrays=pairs,
                    **multiplicity,
                )
            with tracer.span(
                "fit.structure", cat="fit", learner=self.config.structure
            ):
                row_table = (
                    full_table
                    if full_table is not None
                    else stats.reservoir_table()
                )
                if (
                    dag is None
                    and full_table is None
                    and row_table.n_rows == 0
                    and n_stream > 0
                    and self.config.structure.lower() == "fdx"
                ):
                    raise CleaningError(
                        "streamed fdx structure learning needs the "
                        "reservoir sample; set fit_reservoir_rows > 0"
                    )
                self.dag = (
                    dag
                    if dag is not None
                    else self._learn_structure(
                        struct,
                        senc,
                        row_counts=row_counts,
                        row_firsts=row_firsts,
                        n_rows=n_stream,
                        row_table=row_table,
                        fit_executor=fit_executor,
                        n_jobs=n_jobs,
                    )
                )
            self._check_dag_nodes(names)
            with tracer.span("fit.cpts", cat="fit"):
                family_arrays = None
                if fit_executor != "serial":
                    # Dispatch only the families the assembler cannot
                    # re-slice from the co-occurrence pair arrays
                    # (single-parent ones).
                    families = [
                        (node, self.dag.parents(node))
                        for node in self.dag.nodes
                        if len(self.dag.parents(node)) != 1
                    ]
                    if families:
                        family_arrays, fdiag = sharded_family_arrays(
                            senc,
                            names,
                            families,
                            weights,
                            fit_executor,
                            n_jobs,
                            session=self._fit_session,
                        )
                        self._fit_diag["cpt_tasks"] = fdiag["n_cpt_tasks"]
                        self._fit_diag["cpt_shards"] = fdiag["n_shards"]
                        self._merge_fit_flags(fdiag)
                self.bn = DiscreteBayesNet.fit_columnar(
                    struct,
                    self.dag,
                    alpha=self.config.smoothing_alpha,
                    encoding=senc,
                    cooc=self.cooc,
                    family_arrays=family_arrays,
                    row_counts=row_counts,
                    row_firsts=row_firsts,
                    n_rows=n_stream,
                )
        finally:
            self._fit_diag["pools_created"] = self._fit_session.pools_created
            self._fit_diag["snapshot_ships"] = self._fit_session.snapshot_ships
            self._fit_session.close()
            self._fit_session = None
        self._reset_fitted_state(DomainIndex(struct, row_counts=row_counts))

    def _check_dag_nodes(self, names: Sequence[str]) -> None:
        """The learned or supplied DAG must cover exactly the BN nodes."""
        unknown = set(self.dag.nodes) ^ set(names)
        if unknown:
            raise CleaningError(
                f"DAG nodes do not match composition nodes: {sorted(unknown)}"
            )

    def _reset_fitted_state(self, domains: DomainIndex) -> None:
        """The scorers and caches every fit derives from its fresh
        statistics (the shared tail of both fit paths)."""
        self.comp = CompensatoryScorer(
            self.cooc, frequency_weight=self.config.frequency_weight
        )
        self.domains = domains
        self.subnets = partition(self.dag)
        self.pruner = DomainPruner(
            self.cooc, top_k=self.config.domain_prune_top_k
        )
        self._uc_cache: dict[tuple[str, object], bool] = {}
        self._cell_cache: dict[tuple, tuple[Cell, float, float]] = {}
        self._columnar: ColumnarNetScorer | None = None
        self._domain_code_cache: dict[str, np.ndarray] = {}
        self._uc_mask_cache: dict[str, np.ndarray] = {}
        self._exec_diag: dict = {}

    def fit_update(self, new_rows) -> "BClean":
        """Fold fresh rows into the fitted statistics and refit — the
        incremental half of the sufficient-statistics fit.

        ``new_rows`` (a :class:`~repro.dataset.table.Table` or an
        iterable of row tuples under the fitted schema) is merged into
        the engine's :class:`~repro.exec.fit_stream.SuffStats` as one
        more stream chunk; co-occurrence, CPTs, domains, and pruning
        state are refit from the merged counts.  The learned DAG is
        kept — structure re-scoring is deferred (``structure_stale``
        turns true) until :meth:`refresh_structure` — so
        ``fit(A); fit_update(B)`` carries exactly the statistics of
        ``fit(A + B)`` under the same network.  Afterwards the engine's
        fitted table is the distinct-row table of the merged stream.
        Every columnar fit keeps its statistics, so this works after
        :meth:`fit`, :meth:`fit_csv`, and a registry reload alike; the
        scalar oracle fit keeps none and raises.
        """
        if self._suffstats is None:
            raise CleaningError(
                "fit_update() requires a columnar fit (fit() with "
                "use_columnar and the singleton composition)"
            )
        if isinstance(new_rows, Table):
            chunk = new_rows
        else:
            chunk = Table.from_rows(
                self.table.schema, [tuple(row) for row in new_rows]
            )
        self._suffstats.update(chunk)
        self.fit_stats(self._suffstats, dag=self.dag)
        self._structure_stale = True
        return self

    def refresh_structure(self) -> "BClean":
        """Re-learn the structure from the current statistics — the
        deferred half of :meth:`fit_update` (clears
        ``structure_stale``).  An engine still holding the table it was
        fitted on keeps it (and its encoding)."""
        if self._suffstats is None:
            raise CleaningError(
                "refresh_structure() requires a columnar fit (fit() with "
                "use_columnar and the singleton composition)"
            )
        if self._stream_fitted:
            return self.fit_stats(self._suffstats)
        return self.fit_stats(
            self._suffstats, full_table=self.table, encoding=self._encoding
        )

    @property
    def structure_stale(self) -> bool:
        """Whether :meth:`fit_update` has folded in rows the DAG has
        not been re-scored against (see :meth:`refresh_structure`)."""
        return self._structure_stale

    def _merge_fit_flags(self, diag: Mapping) -> None:
        """Carry backend flags of one fit job into the fit diagnostics
        (sticky across the pair and CPT jobs): pool degradations, the
        auto-executor marker, and shared-memory usage."""
        for key in (
            "process_fallback",
            "pool_broken",
            "ran_serially",
            "auto",
            "shm",
        ):
            if diag.get(key):
                self._fit_diag[key] = True
        reason = diag.get("ran_serially_reason")
        if reason and "ran_serially_reason" not in self._fit_diag:
            self._fit_diag["ran_serially_reason"] = reason

    def _learn_structure(
        self,
        node_table: Table,
        encoding: TableEncoding | None = None,
        row_counts: np.ndarray | None = None,
        row_firsts: np.ndarray | None = None,
        n_rows: int | None = None,
        row_table: Table | None = None,
        fit_executor: str = "serial",
        n_jobs: int = 1,
    ) -> DAG:
        """Dispatch to the configured structure learner.

        Columnar fits pass the distinct-row table with its
        ``row_counts``/``row_firsts``/``n_rows`` multiplicities (scores
        and G² tests then match the full stream bit for bit) plus a
        ``row_table`` for the row-level learners (fdx); the scalar
        oracle passes the node table alone.  With a parallel
        ``fit_executor`` and a live fit session, MMHC shards its
        independence tests and score evaluations over the session
        backends.
        """
        total_rows = n_rows if n_rows is not None else node_table.n_rows
        if total_rows < 2:
            # Nothing to profile: an edge-free network makes cleaning a
            # no-op, which is the only defensible output for one row.
            return DAG(node_table.schema.names)
        name = self.config.structure.lower()
        if name == "fdx":
            return fdx_structure(
                row_table if row_table is not None else node_table,
                self.config.fdx,
            ).dag
        if name == "hillclimb":
            return hill_climb(
                node_table,
                encoding=encoding,
                row_counts=row_counts,
                row_firsts=row_firsts,
                n_rows=n_rows,
            ).dag
        if name == "chowliu":
            return chow_liu_tree(
                node_table, encoding=encoding, row_counts=row_counts
            )
        if name == "pc":
            return pc_algorithm(
                node_table, encoding=encoding, row_counts=row_counts
            ).dag
        if name == "mmhc":
            return mmhc(
                node_table,
                encoding=encoding,
                tracer=self._obs,
                row_counts=row_counts,
                row_firsts=row_firsts,
                n_rows=n_rows,
                exec_session=self._fit_session,
                executor=fit_executor,
                n_jobs=n_jobs,
            ).dag
        raise CleaningError(
            f"unknown structure learner {self.config.structure!r}"
        )

    def set_network(self, dag: DAG, refit_nodes: Sequence[str] | None = None) -> None:
        """Swap in an edited network (user interaction, §4).

        ``refit_nodes`` restricts CPT re-estimation to the touched
        attributes; ``None`` refits everything.

        On the columnar path the refit counts the fit's sufficient
        statistics through :meth:`DiscreteBayesNet.fit_columnar` —
        byte-identical CPTs to the scalar walk, without re-interning a
        cell; the scalar walk remains the path for the oracle fit.
        """
        if self.table is None or self.bn is None:
            raise CleaningError("fit() must be called before set_network()")
        # The resident session's snapshot froze the old network (and
        # its competition memo answered competitions scored against
        # it) — both are stale now.
        self.close_session()
        self.dag = dag
        alpha = self.config.smoothing_alpha
        if self._suffstats is not None:
            struct, senc, row_counts, row_firsts = self._suffstats.finalize()
            fitted = DiscreteBayesNet.fit_columnar(
                struct,
                dag,
                alpha=alpha,
                encoding=senc,
                cooc=self.cooc,
                row_counts=row_counts,
                row_firsts=row_firsts,
                n_rows=self._suffstats.n_rows,
            )
            if refit_nodes is None:
                self.bn = fitted
            else:
                cpts = {**self.bn.cpts}
                for node in refit_nodes:
                    cpts[node] = fitted.cpts[node]
                self.bn = DiscreteBayesNet(dag, cpts, alpha=alpha)
        elif refit_nodes is None:
            self.bn = DiscreteBayesNet.fit(self._node_table, dag, alpha=alpha)
        else:
            self.bn = DiscreteBayesNet(
                dag,
                {**self.bn.cpts},
                alpha=alpha,
            )
            self.bn.refit_nodes(self._node_table, list(refit_nodes))
        self.subnets = partition(dag)
        self._cell_cache.clear()
        self._columnar = None

    # -- resident execution session (cleaning as a service) ------------------------

    def fit_state(self, scorer: ColumnarNetScorer | None = None) -> FitState:
        """Freeze the fitted model into the picklable, read-only
        :class:`~repro.exec.state.FitState` snapshot every dispatch of
        the columnar clean path executes against."""
        if self.bn is None or self.table is None:
            raise CleaningError("fit() must be called before fit_state()")
        if scorer is None:
            scorer = self._columnar_scorer()
        names = list(self.table.schema.names)
        return FitState(
            self.config,
            self._encoding,
            self.cooc,
            self.comp,
            self.pruner,
            scorer,
            self.subnets,
            names,
            {a: self._domain_codes(a) for a in names},
        )

    def open_session(self, n_jobs: int | None = None) -> ExecSession:
        """Open (or return) the engine-held resident execution session.

        A per-``clean()`` session dies with its stream; a *resident*
        session is the serving shape — the worker pool stays warm, the
        static snapshot ships once, and the session's competition cache
        memoises outcomes across every clean of this fit (§6's
        amortisation applied to many requests instead of many chunks).
        While open, every columnar ``clean()``/``clean_csv()`` of this
        engine attaches to it instead of building its own.

        The engine holds one reference; callers sharing the session
        further (the serving front) bracket their use with
        :meth:`~repro.exec.session.ExecSession.acquire` /
        :meth:`~repro.exec.session.ExecSession.release`.
        :meth:`close_session` drops the engine's reference — the pool
        is joined when the last holder releases.  ``fit()`` and
        :meth:`set_network` close the session automatically: the
        snapshot (and memo) would be stale.
        """
        if self.bn is None or self.table is None:
            raise CleaningError("fit() must be called before open_session()")
        if not (self.config.use_columnar and self._singleton_composition()):
            raise CleaningError(
                "resident sessions require the columnar path (use_columnar "
                "with the singleton composition)"
            )
        if self._resident is not None and not self._resident.closed:
            return self._resident
        bound = self.config.competition_cache
        if bound is None:
            # No stream to auto-size from at open time: a resident
            # session serves an unknown number of cleans, so take the
            # planner's upper clamp (entries are a few dozen bytes).
            bound = CACHE_MAX_ENTRIES
        self._resident = ExecSession(
            self.fit_state(),
            n_jobs or self.config.n_jobs or os.cpu_count() or 1,
            persistent=self.config.persistent_pool,
            competition_cache=CompetitionCache(bound) if bound else None,
            tracer=self._obs,
        )
        return self._resident

    def close_session(self) -> None:
        """Drop the engine's reference on the resident session (if any);
        the session closes once every other holder has released too."""
        session, self._resident = self._resident, None
        if session is not None:
            session.release()

    @property
    def resident_session(self) -> ExecSession | None:
        """The open resident session, or ``None`` (never a closed one)."""
        session = self._resident
        if session is not None and session.closed:
            self._resident = None
            return None
        return session

    # -- cleaning ------------------------------------------------------------------

    def _call_tracer(self, trace) -> tuple:
        """Resolve one clean call's tracer and trace-output path.

        The engine's fit-time tracer is reused when it is live (one
        file shows fit + clean together); a per-call ``trace=`` or
        ``config.profile`` on an untraced engine gets a fresh tracer
        for just this call; otherwise the shared no-op singleton.
        """
        trace_path = trace if trace is not None else self.config.trace
        if self._obs.enabled:
            return self._obs, trace_path
        if trace_path is not None or self.config.profile:
            return Tracer(), trace_path
        return NULL_TRACER, None

    def clean(
        self, table: Table | None = None, trace: str | None = None
    ) -> CleaningResult:
        """Run Algorithm 1 over ``table`` (defaults to the fitted table).

        On the columnar path the work is delegated to the staged
        pipeline of :mod:`repro.exec.stream` — whole-table as a single
        chunk, or row blocks of ``BCleanConfig.chunk_rows`` each, with
        byte-identical repairs either way.  The scalar oracle path is
        in-memory by construction and ignores ``chunk_rows``.

        ``trace`` writes a Chrome trace-event JSON of this call (see
        :mod:`repro.obs`), overriding ``config.trace``; tracing and
        ``config.profile`` change observability only — repairs are
        byte-identical to an untraced run.
        """
        if self.bn is None or self.table is None:
            raise CleaningError("fit() must be called before clean()")
        table = table if table is not None else self.table
        stats = CleaningStats(fit_seconds=self._fit_seconds)
        repairs: list[Repair] = []
        cleaned = table.copy()

        columnar = self._columnar_applicable(table)
        self._competitions_run = 0
        self._exec_diag = {}
        self._stream_diag = {}
        tracer, trace_path = self._call_tracer(trace)
        mark = tracer.mark()
        with Stopwatch(tracer, "clean_seconds") as timer, tracer.span(
            "clean", cat="clean", root=True
        ):
            if columnar:
                try:
                    scorer = self._columnar_scorer()
                except (CPTError, InferenceError):
                    # e.g. fused parent-config overflow — the scalar
                    # oracle handles anything.
                    columnar = False
            if columnar:
                resident = self.resident_session
                driver = StreamDriver(
                    self, scorer, tracer=tracer, session=resident
                )
                driver.clean_table(
                    table, table is self.table, stats, cleaned, repairs
                )
                self._competitions_run = driver.competitions_run
                self._exec_diag = driver.exec_diagnostics(self.config.executor)
                if self.config.chunk_rows is not None or resident is not None:
                    self._stream_diag = driver.stream_diagnostics()
            else:
                self._clean_scalar(table, stats, cleaned, repairs)
        stats.clean_seconds = timer.seconds
        stats.repairs_made = len(repairs)
        # "cache_size" is the number of distinct (attribute, row
        # signature) competitions materialised: the memo table of the
        # scalar path, the up-front dedup groups of the columnar one
        # (chunked runs re-materialise signatures recurring across
        # chunks, so their count can exceed the whole-table one).
        cache_size = (
            self._competitions_run if columnar else len(self._cell_cache)
        )
        diagnostics = {
            "mode": self.config.mode.value,
            "n_edges": self.dag.n_edges,
            "partition": partition_statistics(self.subnets),
            "cache_size": cache_size,
            "columnar": columnar,
        }
        if self._exec_diag:
            diagnostics["exec"] = dict(self._exec_diag)
        if self._stream_diag:
            diagnostics["stream"] = dict(self._stream_diag)
        if self._fit_diag:
            diagnostics["fit_exec"] = dict(self._fit_diag)
        if tracer.enabled:
            diagnostics["profile"] = tracer.profile(since=mark)
            if trace_path is not None:
                tracer.write(trace_path)
        return CleaningResult(cleaned, repairs, stats, diagnostics=diagnostics)

    def clean_csv(
        self,
        src,
        dst,
        delimiter: str = ",",
        trace: str | None = None,
    ) -> CleaningResult:
        """Out-of-core clean: stream a CSV through the staged pipeline.

        ``src`` must share the fitted schema (it is read under it, in
        blocks of ``chunk_rows`` rows — or a bounded default — so the
        table is never whole in memory); the repaired rows are appended
        to ``dst`` as each block finishes.  The returned result carries
        the repairs, stats, and diagnostics but ``cleaned`` is ``None``
        — the cleaned relation lives in ``dst``.

        Requires the columnar path (``use_columnar`` with the default
        singleton composition): the scalar oracle is a per-cell dict
        walk over an in-memory table and cannot stream.
        """
        if self.bn is None or self.table is None:
            raise CleaningError("fit() must be called before clean_csv()")
        if not self.config.use_columnar or not self._singleton_composition():
            raise CleaningError(
                "clean_csv() requires the columnar path (use_columnar "
                "with the singleton composition)"
            )
        stats = CleaningStats(fit_seconds=self._fit_seconds)
        repairs: list[Repair] = []
        tracer, trace_path = self._call_tracer(trace)
        mark = tracer.mark()
        with Stopwatch(tracer, "clean_seconds") as timer, tracer.span(
            "clean", cat="clean", root=True
        ):
            scorer = self._columnar_scorer()
            driver = StreamDriver(
                self, scorer, tracer=tracer, session=self.resident_session
            )
            driver.clean_csv(src, dst, stats, repairs, delimiter=delimiter)
        stats.clean_seconds = timer.seconds
        stats.repairs_made = len(repairs)
        self._competitions_run = driver.competitions_run
        diagnostics = {
            "mode": self.config.mode.value,
            "n_edges": self.dag.n_edges,
            "partition": partition_statistics(self.subnets),
            "cache_size": driver.competitions_run,
            "columnar": True,
            "exec": driver.exec_diagnostics(self.config.executor),
            "stream": driver.stream_diagnostics(),
        }
        if self._fit_diag:
            diagnostics["fit_exec"] = dict(self._fit_diag)
        if tracer.enabled:
            diagnostics["profile"] = tracer.profile(since=mark)
            if trace_path is not None:
                tracer.write(trace_path)
        return CleaningResult(None, repairs, stats, diagnostics=diagnostics)

    def _columnar_applicable(self, table: Table) -> bool:
        """The fast path requires the singleton composition (BN nodes
        must be table attributes for coded scoring) and either the
        fitted table itself or a foreign table sharing its schema (whose
        unseen values incremental encoding interns on the fly).  A
        fitted table mutated since ``fit()`` fails the snapshot check —
        the scalar path then reads the live cells, exactly like the
        oracle."""
        if not self.config.use_columnar:
            return False
        if not self._singleton_composition():
            return False
        if table is self.table:
            return self._encoding.matches(table)
        return list(table.schema.names) == list(self.table.schema.names)

    def _singleton_composition(self) -> bool:
        """Whether every BN node is exactly one table attribute — the
        composition the coded fast paths (columnar fit, staged clean,
        streaming CSV clean) all require."""
        return all(
            self.composition.members(node) == (node,)
            for node in self.composition.nodes
        )

    def _columnar_scorer(self) -> ColumnarNetScorer:
        if self._columnar is None:
            self._columnar = ColumnarNetScorer(self.bn, self._encoding)
        return self._columnar

    # -- scalar reference path -----------------------------------------------------

    def _clean_scalar(
        self,
        table: Table,
        stats: CleaningStats,
        cleaned: Table,
        repairs: list[Repair],
    ) -> None:
        mode = self.config.mode
        names = table.schema.names
        # Per-row confidence weights exist only for the fitted table —
        # a foreign table's rows contributed nothing to Algorithm 2's
        # accumulator, so their self-exclusion removes a neutral +1.
        fitted = table is self.table
        for i in range(table.n_rows):
            row = {a: table.columns[j][i] for j, a in enumerate(names)}
            weight = self._tuple_weight(i) if fitted else 1.0
            for attr in names:
                stats.cells_total += 1
                if mode == InferenceMode.PARTITIONED_PRUNED and not is_null(
                    row[attr]
                ):
                    if should_skip_cell(
                        self.cooc, row, attr, self.config.tau_clean
                    ):
                        stats.cells_skipped_pruning += 1
                        continue
                stats.cells_inspected += 1
                best, best_score, incumbent_score = self._best_candidate(
                    attr, row, weight, stats
                )
                # The margin (incumbent protection) is already folded
                # into incumbent_score by the competition.
                if best is not None and best_score > incumbent_score:
                    if cell_key(best) != cell_key(row[attr]):
                        cleaned.set_cell(i, attr, best)
                        repairs.append(
                            Repair(
                                i,
                                attr,
                                row[attr],
                                best,
                                incumbent_score,
                                best_score,
                            )
                        )

    def _tuple_weight(self, i: int) -> float:
        """The confidence weight row ``i`` contributed to Algorithm 2's
        accumulator (what ``exclude_self`` must remove)."""
        if self.confidences is None:
            return 1.0
        return 1.0 if self.confidences[i] >= self.config.tau else -self.config.beta

    # -- per-cell inference -----------------------------------------------------------

    def _best_candidate(
        self,
        attr: str,
        row: Mapping[str, Cell],
        weight: float,
        stats: CleaningStats,
    ) -> tuple[Cell | None, float, float]:
        """(best candidate, its score, incumbent score) for one cell.

        Results are cached on the (attribute, tuple weight, scoring
        context, incumbent) signature: rows sharing their context
        values reuse the whole candidate competition.  Within one table
        the weight is a function of the row's values, but the same
        signature can carry a different weight when a *foreign* table
        is cleaned (its rows are always weight 1.0), so the weight is
        part of the key.
        """
        node = self.composition.node_of(attr)
        subnet = self.subnets[node]
        # Eq. 2 sums correlations over *all* other attributes; the BN
        # partition of §6.1 only restricts the BN term.
        context_attrs = [a for a in self.table.schema.names if a != attr]
        current = row[attr]

        sig = (
            attr,
            weight,
            tuple(cell_key(row[a]) for a in self.table.schema.names),
        )
        hit = self._cell_cache.get(sig)
        if hit is not None:
            return hit

        pool = self._candidate_pool(attr, row, context_attrs, current, stats)
        result = self._run_competition(
            attr, node, subnet, row, pool, current, context_attrs, weight, stats
        )
        self._cell_cache[sig] = result
        return result

    def _candidate_pool(
        self,
        attr: str,
        row: Mapping[str, Cell],
        context_attrs: Sequence[str],
        current: Cell,
        stats: CleaningStats,
    ) -> list[Cell]:
        """Generate candidates: context co-occurring values first, then
        the most frequent domain values, UC-filtered and capped."""
        cap = self.config.effective_candidate_cap()

        # Rank context candidates by how strongly they co-occur with the
        # tuple (summed pair counts).  Ranking by marginal frequency (or
        # flooding from the first low-selectivity context attribute)
        # drops the low-frequency-but-context-exact repairs — typically
        # the FD-partner value that *is* the correct fix.
        strength: dict[object, float] = {}
        values_by_key: dict[object, Cell] = {}
        for attr_k in context_attrs:
            context_value = row[attr_k]
            for value in self.cooc.cooccurring_values(attr, attr_k, context_value):
                if is_null(value):
                    continue
                k = cell_key(value)
                values_by_key.setdefault(k, value)
                strength[k] = strength.get(k, 0.0) + self.cooc.pair_count(
                    attr, value, attr_k, context_value
                )
        ordered = sorted(values_by_key, key=lambda k: -strength[k])
        if cap is not None:
            ordered = ordered[:cap]
        pool_keys = set(ordered)

        # Top up with globally frequent values (the domain prior).
        for value in self.domains.candidate_values(attr, cap):
            k = cell_key(value)
            if k not in pool_keys:
                pool_keys.add(k)
                values_by_key[k] = value
                ordered.append(k)

        candidates = [values_by_key[k] for k in ordered]

        if self.config.use_ucs:
            filtered = []
            for c in candidates:
                if self._uc_ok(attr, c):
                    filtered.append(c)
                else:
                    stats.candidates_filtered_uc += 1
            candidates = filtered

        if cap is not None and len(candidates) > cap:
            candidates = sorted(
                candidates,
                key=lambda c: -strength.get(cell_key(c), 0.0),
            )[:cap]
        ordered = candidates

        if self.config.mode == InferenceMode.PARTITIONED_PRUNED:
            ordered = self.pruner.prune(
                ordered, row, attr, context_attrs, keep=()
            )
        return ordered

    def _uc_ok(self, attr: str, value: Cell) -> bool:
        key = (attr, cell_key(value))
        hit = self._uc_cache.get(key)
        if hit is None:
            hit = self.constraints.check_cell(attr, value)
            self._uc_cache[key] = hit
        return hit

    def _run_competition(
        self,
        attr: str,
        node: str,
        subnet: SubNetwork,
        row: Mapping[str, Cell],
        pool: Sequence[Cell],
        current: Cell,
        context_attrs: Sequence[str],
        weight: float,
        stats: CleaningStats,
    ) -> tuple[Cell | None, float, float]:
        """Score incumbent + pool; return (best, best score, incumbent score)."""
        contenders: list[Cell] = list(pool)
        if all(cell_key(c) != cell_key(current) for c in contenders):
            contenders.append(current)

        node_row = self.composition.node_row(row)
        bn_scores: dict[object, float] = {}
        for c in contenders:
            stats.candidates_evaluated += 1
            bn_scores[cell_key(c)] = self._bn_score(attr, node, subnet, node_row, c, row)

        current_key = cell_key(current)
        if self.config.use_compensatory:
            raw = {
                cell_key(c): self.comp.score(
                    c, row, attr, context_attrs,
                    is_incumbent=cell_key(c) == current_key,
                    self_weight=weight,
                )
                for c in contenders
            }
            w = self.config.comp_weight
            comp_log = {
                k: w * v
                for k, v in log_compensatory(
                    raw, self.config.comp_smoothing
                ).items()
            }
        else:
            comp_log = {cell_key(c): 0.0 for c in contenders}

        incumbent_penalty = 0.0
        if self.config.use_ucs and not self._uc_ok(attr, current):
            # A UC-violating observation must lose to any valid candidate
            # ("P[g] is set to 0 prior to inference", §7.3.1).
            incumbent_penalty = self.config.uc_violation_penalty

        # Incumbent protection (the repair margin) only applies to values
        # with independent support: a value that never co-occurs with its
        # tuple context in any *other* row is evidently suspect and gets
        # no benefit of the doubt — the same reliability signal as the
        # tuple-pruning filter of §6.2.
        margin = (
            self.config.repair_margin
            if self._incumbent_supported(attr, current, row, context_attrs)
            else self.config.unsupported_margin
        )

        best: Cell | None = None
        best_score = -float("inf")
        incumbent_score = -float("inf")
        for c in contenders:
            k = cell_key(c)
            total = bn_scores[k] + comp_log[k]
            if k == current_key:
                total = total - incumbent_penalty + margin
                incumbent_score = total
            if total > best_score:
                best, best_score = c, total

        # A *forced* repair (the incumbent is NULL or UC-violating, i.e.
        # essentially vetoed) must still be evidence-backed: a winner
        # that never co-occurs with this tuple's context elsewhere is a
        # guess, and guesses cost precision for no recall.
        forced = is_null(current) or incumbent_penalty > 0
        if (
            forced
            and best is not None
            and cell_key(best) != current_key
            and not self._candidate_supported(attr, best, row, context_attrs)
        ):
            return current, incumbent_score, incumbent_score
        return best, best_score, incumbent_score

    def _candidate_supported(
        self,
        attr: str,
        candidate: Cell,
        row: Mapping[str, Cell],
        context_attrs: Sequence[str],
    ) -> bool:
        """Whether ``candidate`` co-occurs with the tuple context in at
        least ``min_fill_support`` tuples."""
        need = self.config.min_fill_support
        for attr_k in context_attrs:
            if self.cooc.pair_count(attr, candidate, attr_k, row[attr_k]) >= need:
                return True
        return False

    def _incumbent_supported(
        self,
        attr: str,
        current: Cell,
        row: Mapping[str, Cell],
        context_attrs: Sequence[str],
    ) -> bool:
        """Whether the observed value co-occurs with its context in at
        least one other tuple (pair count ≥ 2: itself plus one more)."""
        if is_null(current):
            return False
        for attr_k in context_attrs:
            if self.cooc.pair_count(attr, current, attr_k, row[attr_k]) >= 2:
                return True
        return False

    def _bn_score(
        self,
        attr: str,
        node: str,
        subnet: SubNetwork,
        node_row: Mapping[str, Cell],
        candidate: Cell,
        row: Mapping[str, Cell],
    ) -> float:
        node_value = self.composition.node_value_with(node, row, attr, candidate)
        if self.config.mode == InferenceMode.BASIC:
            return self.bn.joint_log_prob_with(node_row, node, node_value)
        if subnet.is_isolated:
            # §6.1: isolated nodes get a uniform CPT — a constant that
            # cancels in the candidate competition.
            return 0.0
        return self.bn.blanket_log_score(node, node_value, node_row)

    # -- columnar fast path (staged pipeline helpers) -------------------------------

    def _domain_codes(self, attr: str) -> np.ndarray:
        """Codes of the attribute's domain values, most frequent first
        (the scalar ``DomainIndex.candidate_values`` order)."""
        codes = self._domain_code_cache.get(attr)
        if codes is None:
            vocab = self._encoding.vocab(attr)
            codes = np.array(
                [vocab.encode(v) for v in self.domains.candidate_values(attr, None)],
                dtype=np.int64,
            )
            self._domain_code_cache[attr] = codes
        return codes

    def _uc_code_mask(self, attr: str) -> np.ndarray:
        """Per-code user-constraint verdicts (the coded ``_uc_cache``).

        When incremental encoding extended the vocabulary since the
        cached mask was built, only the freshly minted codes are
        checked — the verdicts of existing codes never change.
        """
        vocab = self._encoding.vocab(attr)
        mask = self._uc_mask_cache.get(attr)
        if mask is not None and len(mask) == vocab.size:
            return mask
        start = 0 if mask is None else len(mask)
        extra = np.fromiter(
            (
                self.constraints.check_cell(attr, vocab.decode(code))
                for code in range(start, vocab.size)
            ),
            dtype=bool,
            count=vocab.size - start,
        )
        mask = extra if mask is None else np.concatenate([mask, extra])
        self._uc_mask_cache[attr] = mask
        return mask


def clean_table(
    table: Table,
    config: BCleanConfig | None = None,
    constraints: UCRegistry | None = None,
    **config_overrides,
) -> CleaningResult:
    """One-shot convenience wrapper: fit + clean in a single call.

    Keyword arguments beyond ``config``/``constraints`` override the
    corresponding :class:`BCleanConfig` fields, so the new execution
    knobs are one call away without building a config first::

        clean_table(table, chunk_rows=1024, executor="auto")
        clean_table(table, BCleanConfig.pip(), n_jobs=8)
    """
    if config is None:
        config = BCleanConfig(**config_overrides)
    elif config_overrides:
        config = replace(config, **config_overrides)
    engine = BClean(config, constraints)
    engine.fit(table)
    return engine.clean()
