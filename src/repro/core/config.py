"""Configuration of the BClean engine.

Defaults follow §7.1 ("Parameters"): λ = 1, β = 2, τ = 0.5.  The variant
selection (basic / PI / PIP / -UC) maps onto :class:`InferenceMode` and
``use_ucs`` exactly as the paper's Table 4 rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.bayesnet.structure.fdx import FDXConfig
from repro.errors import CleaningError


class InferenceMode(enum.Enum):
    """Which inference path the engine uses.

    BASIC
        Full-joint scoring: every candidate re-evaluates all m CPT
        factors (the unoptimised *BClean* row of Table 4/7).
    PARTITIONED
        Markov-blanket scoring only (*BCleanPI*).
    PARTITIONED_PRUNED
        Markov-blanket scoring plus tuple pruning (pre-detection) and
        TF-IDF domain pruning (*BCleanPIP*).
    """

    BASIC = "basic"
    PARTITIONED = "pi"
    PARTITIONED_PRUNED = "pip"


@dataclass
class BCleanConfig:
    """All knobs of the BClean engine.

    Attributes
    ----------
    lam:
        λ of Eq. 3 — penalty weight of UC-violating values inside the
        tuple confidence.
    beta:
        β of Algorithm 2 — penalty applied to pair counts contributed by
        low-confidence tuples.
    tau:
        τ — confidence threshold separating reliable from unreliable
        tuples.
    tau_clean:
        Threshold of the tuple-pruning filter (§6.2); cells whose
        ``Filter(T, A_i)`` is at least this value are skipped in
        PARTITIONED_PRUNED mode.
    frequency_weight:
        Weight of the value-frequency term inside the compensatory score
        (§3 lists value frequency alongside pairwise correlation).
        Defaults to 0: raw frequency lets majority values overwrite
        rare-but-valid cells on attributes with no relational signal;
        the co-occurrence sums already encode frequency where it is
        actually evidence.
    domain_prune_top_k:
        Number of candidates kept by TF-IDF domain pruning.
    candidate_cap:
        Hard cap on candidate values per cell (most frequent first);
        ``None`` disables the cap.  Applies to all modes — the paper's
        Soccer run shows why unbounded domains are intractable.
    mode:
        Inference path (see :class:`InferenceMode`).
    use_ucs:
        ``False`` gives the *BClean-UC* variant: constraints are neither
        enforced on candidates nor used in the confidence score.
    use_compensatory:
        Ablation switch for the compensatory scoring model (§5).
    comp_smoothing:
        Pseudo-count of the compensatory log-mapping, in the corr's
        conditional-lift units (probability scale).  Competitions whose
        association evidence is below this level contribute ~nothing;
        strong lifts (FD partners approach 1.0) dominate.
    comp_weight:
        Multiplier on the compensatory log-term — how strongly the
        correlation evidence can override the BN term (the §5
        error-amplification correction).
    repair_margin:
        A candidate must beat the incumbent by this much (log-space) to
        trigger a repair — near-ties keep the observed value.
    unsupported_margin:
        The (smaller) margin applied when the incumbent has *no*
        independent co-occurrence support.  Nonzero so that noise-level
        score differences cannot flip near-unique values, small so that
        genuinely evidenced repairs still fire.
    uc_violation_penalty:
        Log-space penalty on an incumbent that violates its UCs ("P[g]
        is set to 0 prior to inference", §7.3.1 — violating values
        should lose to any valid candidate).
    min_fill_support:
        A *forced* repair (NULL or UC-violating incumbent) only happens
        when the winning candidate co-occurs with the tuple context in
        at least this many tuples — guessing without evidence trades
        precision for nothing.
    use_columnar:
        Route cleaning through the columnar fast path: integer-coded
        columns, vectorised co-occurrence probes, batched blanket
        scoring, and one deduplicated competition per distinct
        (attribute, row signature).  Foreign tables sharing the fitted
        schema ride the fast path too, through incremental encoding of
        their unseen values.  Repair decisions are identical to the
        scalar path, which is retained as the reference oracle
        (``use_columnar=False``) and used automatically whenever the
        fast path cannot apply (merged-node compositions, a fitted
        table mutated since ``fit()``, or a foreign table with a
        different schema).
    executor:
        Worker backend of the sharded execution subsystem:
        ``"serial"`` (default — in-process), ``"thread"``
        (``ThreadPoolExecutor``; shares statistics by reference but
        runs under the GIL), ``"process"``
        (``ProcessPoolExecutor``; ships a read-only snapshot to each
        worker once per clean — large numpy arrays travel through one
        ``multiprocessing.shared_memory`` block when the host supports
        it, pickle otherwise — true multi-core scaling), or ``"auto"``
        (pick serial vs process per clean from the shard planner's
        total-cost estimate, see
        :func:`repro.exec.planner.resolve_executor`).  All backends
        produce byte-identical results.
    n_jobs:
        Worker count for the parallel executors; ``None`` uses the
        machine's CPU count.
    shard_size:
        Fixed number of competitions per shard; ``None`` (default)
        lets the planner cut cost-balanced shards from the estimated
        candidate-pool sizes.
    chunk_rows:
        Row-block size of the staged streaming clean
        (:mod:`repro.exec.stream`).  ``None`` (default) cleans the
        whole table as a single chunk; a positive value routes the
        columnar clean through the chunked pipeline — ingest → encode →
        detect → plan → execute → merge → emit — one row block at a
        time, producing repairs byte-identical to the whole-table run
        at every chunk size.  The scalar oracle path ignores this knob
        (it is in-memory by construction).
    competition_cache:
        Entry bound of the session-scoped cross-chunk competition cache
        (:mod:`repro.exec.cache`), active on chunked streams only: the
        bounded-LRU memo of competition outcomes keyed by (attribute,
        deduplicated row signature, tuple weight) that lets a signature
        recurring across row blocks skip its re-run — the plan stage
        answers cache hits driver-side with zero dispatch.  ``None``
        (default) auto-sizes the bound from the first chunk's
        extrapolated competition count (see
        :func:`repro.exec.planner.default_cache_entries`); a positive
        value bounds the entries explicitly; ``0`` disables the cache.
        Results are byte-identical at every setting (a hit replays what
        a re-run would compute; eviction only converts hits back into
        identical recomputations) — only wall-clock and the
        ``cache_hits`` / ``cache_misses`` / ``cache_evictions``
        diagnostics differ.
    persistent_pool:
        Keep one execution session per ``clean()`` (and per ``fit()``):
        the worker pool is created once, the static fit-statistics
        snapshot is shipped once through the pool initializer, and
        every chunk (or fit job) dispatches only its per-chunk payload
        to the already-warm workers — restoring the paper's
        amortisation of fixed costs over the whole table.  ``False``
        (the ``--no-persistent-pool`` escape hatch) tears the pool and
        snapshot down after every dispatch — the pre-session behaviour,
        for hosts where long-lived worker processes are unwelcome.
        Results are byte-identical either way; only wall-clock and the
        ``pools_created`` / ``snapshot_ships`` diagnostics differ.
    fit_executor:
        Worker backend for the sharded *fit* work (same choices and
        trade-offs as ``executor``, including ``"auto"``): the
        per-attribute-pair
        co-occurrence builds and per-node CPT count passes — independent
        by construction — are planned and dispatched through the
        :mod:`repro.exec` subsystem.  Only applies on the columnar fit
        path (``use_columnar`` with the singleton composition); the
        fitted statistics are byte-identical for every backend.
        The structure search is sharded through the same backends too:
        MMHC's per-target MMPC scans and each hill-climb sweep's family
        scores dispatch as fit jobs (see :mod:`repro.exec.fit`), with
        bit-identical DAGs and scores on every backend.
    fit_chunk_rows:
        Row-block size in which ``fit(table)`` folds the table into
        the mergeable sufficient statistics of
        :mod:`repro.exec.fit_stream`.  ``None`` (default) folds it as
        one block; a positive value folds it (or the CSV of
        :meth:`~repro.core.engine.BClean.fit_csv`) one row block at a
        time — DAG, CPTs, and downstream repairs byte-identical to the
        one-block fit at every block size.
    fit_reservoir_rows:
        Cap of the row-level reservoir sample the sufficient
        statistics keep for the structure learner's row-order needs
        (FDX sorts raw tuples); ``0`` disables it.  Streams no longer
        than the cap are reproduced exactly.  ``fit(table)`` profiles
        the real table itself; its reservoir serves a later
        ``fit_update`` + ``refresh_structure``.
    smoothing_alpha:
        Laplace pseudo-count of the CPTs.
    fdx:
        Configuration of the FDX structure learner.
    structure:
        Structure learner name: "fdx", "hillclimb", "chowliu", or "pc".
    max_candidates_basic:
        Extra cap used in BASIC mode (full-joint scoring is m× more
        expensive per candidate).
    profile:
        Collect the observability tracer's aggregated stage/shard
        breakdown into ``diagnostics["profile"]`` (see
        :mod:`repro.obs`).  Off by default: the disabled tracer is a
        shared no-op singleton, so an unprofiled run pays nothing and
        its dispatch payloads are byte-identical to a build without
        tracing.  Repairs are byte-identical either way.
    trace:
        Path to write a Chrome trace-event JSON file of the run (open
        it at https://ui.perfetto.dev): the seven streaming stages per
        chunk, per-shard worker spans, session lifecycle events, and
        fit phases.  ``None`` (default) writes nothing.  Implies the
        tracer is active (and ``diagnostics["profile"]`` is reported)
        for the traced call.
    """

    lam: float = 1.0
    beta: float = 2.0
    tau: float = 0.5
    tau_clean: float = 0.35
    frequency_weight: float = 0.0
    domain_prune_top_k: int = 24
    candidate_cap: int | None = 120
    mode: InferenceMode = InferenceMode.PARTITIONED
    use_ucs: bool = True
    use_compensatory: bool = True
    comp_smoothing: float = 0.05
    comp_weight: float = 3.0
    repair_margin: float = 2.0
    unsupported_margin: float = 0.5
    uc_violation_penalty: float = 100.0
    min_fill_support: int = 1
    use_columnar: bool = True
    executor: str = "serial"
    n_jobs: int | None = None
    shard_size: int | None = None
    chunk_rows: int | None = None
    competition_cache: int | None = None
    persistent_pool: bool = True
    fit_executor: str = "serial"
    fit_chunk_rows: int | None = None
    fit_reservoir_rows: int = 10_000
    smoothing_alpha: float = 0.1
    fdx: FDXConfig = field(default_factory=FDXConfig)
    structure: str = "fdx"
    max_candidates_basic: int = 40
    profile: bool = False
    trace: str | None = None

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise CleaningError(f"lambda must be non-negative, got {self.lam}")
        if self.beta < 0:
            raise CleaningError(f"beta must be non-negative, got {self.beta}")
        if not 0.0 <= self.tau <= 1.0:
            raise CleaningError(f"tau must be in [0, 1], got {self.tau}")
        if self.executor not in ("serial", "thread", "process", "auto"):
            raise CleaningError(
                f"executor must be 'serial', 'thread', 'process', or "
                f"'auto', got {self.executor!r}"
            )
        if self.fit_executor not in ("serial", "thread", "process", "auto"):
            raise CleaningError(
                f"fit_executor must be 'serial', 'thread', 'process', or "
                f"'auto', got {self.fit_executor!r}"
            )
        if self.n_jobs is not None and self.n_jobs < 1:
            raise CleaningError(f"n_jobs must be positive, got {self.n_jobs}")
        if self.shard_size is not None and self.shard_size < 1:
            raise CleaningError(
                f"shard_size must be positive, got {self.shard_size}"
            )
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise CleaningError(
                f"chunk_rows must be positive, got {self.chunk_rows}"
            )
        if self.fit_chunk_rows is not None and self.fit_chunk_rows < 1:
            raise CleaningError(
                f"fit_chunk_rows must be positive, got {self.fit_chunk_rows}"
            )
        if self.fit_reservoir_rows < 0:
            raise CleaningError(
                f"fit_reservoir_rows must be non-negative, "
                f"got {self.fit_reservoir_rows}"
            )
        if self.competition_cache is not None and self.competition_cache < 0:
            raise CleaningError(
                f"competition_cache must be non-negative (0 disables), "
                f"got {self.competition_cache}"
            )
        if self.trace is not None and not str(self.trace):
            raise CleaningError("trace must be a non-empty path or None")
        if isinstance(self.mode, str):
            self.mode = InferenceMode(self.mode)

    def effective_candidate_cap(self) -> int | None:
        """The candidate cap actually applied in the current mode: BASIC
        folds in ``max_candidates_basic`` (full-joint scoring is m×
        more expensive per candidate).  Shared by pool construction and
        the shard planner's cost estimate so they can never diverge."""
        cap = self.candidate_cap
        if self.mode != InferenceMode.BASIC:
            return cap
        if cap is None:
            return self.max_candidates_basic
        return min(cap, self.max_candidates_basic)

    @classmethod
    def basic(cls, **kwargs) -> "BCleanConfig":
        """The unoptimised *BClean* configuration of Table 4."""
        return cls(mode=InferenceMode.BASIC, **kwargs)

    @classmethod
    def pi(cls, **kwargs) -> "BCleanConfig":
        """The *BCleanPI* configuration (partitioned inference)."""
        return cls(mode=InferenceMode.PARTITIONED, **kwargs)

    @classmethod
    def pip(cls, **kwargs) -> "BCleanConfig":
        """The *BCleanPIP* configuration (partition + pruning)."""
        return cls(mode=InferenceMode.PARTITIONED_PRUNED, **kwargs)

    @classmethod
    def without_ucs(cls, **kwargs) -> "BCleanConfig":
        """The *BClean-UC* configuration (no user constraints)."""
        return cls(use_ucs=False, mode=InferenceMode.PARTITIONED, **kwargs)
