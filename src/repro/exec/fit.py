"""Sharded fit: parallel co-occurrence pair builds, CPT count passes,
MMPC scans, and family-score evaluations.

PRs 1–2 made ``clean()`` columnar and sharded; this module does the same
for the row-pass-heavy pieces of ``fit()``:

- **per-attribute-pair co-occurrence builds** (Algorithm 2): the
  ``m·(m−1)/2`` unordered pairs are independent, and each is one
  :func:`~repro.core.cooccurrence.build_pair_arrays` call over the coded
  columns;
- **per-node CPT count passes**: each family's distinct
  *(parent-configuration, value)* counts are one
  :func:`~repro.stats.infotheory.joint_code_counts` call — also
  independent per node.  Single-parent families are *not* dispatched:
  the engine re-slices them from the pair arrays built above (see
  :meth:`~repro.bayesnet.model.DiscreteBayesNet.fit_columnar`), so their
  counting cost is zero;
- **per-target MMPC scans** (structure search phase 1): each target's
  grow/shrink loop touches a cache whose keys all start with that
  target, so the per-target runs are embarrassingly parallel — workers
  build a fresh :class:`~repro.bayesnet.structure.mmhc._AssocCache` from
  the coded columns and return ``(cpc, tests, memo items)``; the driver
  absorbs the memos so its cache holds exactly what a shared serial one
  would;
- **family-score evaluations** (structure search phase 2): hill-climbing
  prefetches each sweep's uncached family keys and scores them
  worker-side via the very same group-score functions
  (:func:`~repro.bayesnet.structure.scores.bic_group_score` and
  friends) the driver classes delegate to — identical float operation
  sequence, bit-identical values.

All task kinds are planned by the same cost-balanced
:func:`~repro.exec.planner.plan_shards` used for cleaning (cost ∝ rows ×
columns touched) and executed through the same session-scoped backends.
The state follows the session split of :mod:`repro.exec.state`: the
:class:`FitJobState` snapshot holds only the **static** coded column
arrays (plus cardinalities, row weights, and — for deduplicated streams
— row multiplicities and first-appearance indices), shipped to process
workers once per :class:`~repro.exec.session.ExecSession`; each job's
task table travels as a tiny per-dispatch :class:`FitTasks` payload.
One engine ``fit()`` therefore runs its pair job, its structure jobs,
*and* its CPT job on the same warm pool, shipping the coded columns
once.  Results are merged deterministically by task index — so the
assembled statistics are byte-identical to the serial build for every
backend and shard count (the worker runs the *same* numpy calls on the
same arrays; only the schedule differs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cooccurrence import (
    PairArrays,
    build_pair_arrays,
)
from repro.errors import CleaningError
from repro.exec.planner import (
    AUTO_FIT_COST_THRESHOLD,
    OVERSUBSCRIBE,
    Shard,
    plan_shards,
    resolve_executor,
)
from repro.exec.session import ExecSession
from repro.stats.infotheory import joint_code_counts

#: planner "column" ids of the fit task kinds
PAIR_TASKS = 0
CPT_TASKS = 1
MMPC_TASKS = 2
SCORE_TASKS = 3


@dataclass
class FitShardResult:
    """Payloads of one fit shard: one result tuple per task uid.

    For pair tasks the payload is ``(forward, reverse)``
    :class:`~repro.core.cooccurrence.PairArrays`; for CPT tasks it is
    the ``(uniq_cols, counts, first_rows)`` triple of
    :func:`~repro.stats.infotheory.joint_code_counts`; for MMPC tasks it
    is ``(sorted cpc members, n_tests, memo items)``; for score tasks it
    is the family-score float.
    """

    shard_id: int
    column: int
    uids: np.ndarray
    payloads: list


@dataclass(frozen=True)
class FitTasks:
    """The per-dispatch payload of one fit job: its task tables.

    ``pair_tasks`` lists ``(j, k)`` column-index pairs (``j < k``) whose
    co-occurrence arrays to build; ``cpt_tasks`` lists
    ``(child, parents)`` column-index families whose distinct count
    arrays to extract; ``mmpc_tasks`` lists target attribute *names*
    whose CPC sets to grow (with ``mmpc_params = (alpha,
    max_condition)``); ``score_tasks`` lists ``(node, parents)`` name
    families to score (with ``score_params = (kind, ess, n_rows)``).
    Shard ``uids`` index into these tuples.
    """

    pair_tasks: tuple = ()
    cpt_tasks: tuple = ()
    mmpc_tasks: tuple = ()
    score_tasks: tuple = ()
    mmpc_params: tuple = ()
    score_params: tuple = ()


class FitJobState:
    """Picklable **static** snapshot of everything a fit worker needs.

    Parameters
    ----------
    columns:
        The coded columns in schema order (int64 arrays of equal
        length).
    cards:
        Build-time vocabulary cardinality per column.
    weights:
        Per-row confidence weights (Algorithm 2's +1 / −β).
    names:
        Attribute names aligned with ``columns`` (required by the
        name-keyed structure-search tasks).
    row_counts / row_firsts / n_rows:
        Deduplicated-stream form (:mod:`repro.exec.fit_stream`): the
        columns then hold the stream's distinct rows, row ``i`` counted
        ``row_counts[i]`` times and first seen at global stream index
        ``row_firsts[i]``, out of ``n_rows`` total.  ``None`` for a
        plain whole-table fit.
    """

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        cards: Sequence[int],
        weights: np.ndarray,
        names: Sequence[str] | None = None,
        row_counts: np.ndarray | None = None,
        row_firsts: np.ndarray | None = None,
        n_rows: int | None = None,
    ):
        self.columns = list(columns)
        self.cards = list(cards)
        self.weights = weights
        self.names = list(names) if names is not None else None
        self.row_counts = row_counts
        self.row_firsts = row_firsts
        self.n_rows = int(n_rows) if n_rows is not None else len(weights)

    def run_shard(self, shard: Shard, tasks: FitTasks) -> FitShardResult:
        """Run one slice of fit tasks (a pure function of the snapshot
        plus the job's task table, like the cleaning kernel)."""
        payloads = []
        if shard.column == PAIR_TASKS:
            for uid in shard.uids.tolist():
                j, k = tasks.pair_tasks[uid]
                built = build_pair_arrays(
                    self.columns[j],
                    self.cards[j],
                    self.columns[k],
                    self.cards[k],
                    self.weights,
                    self.row_counts,
                    self.row_firsts,
                )
                payloads.append(built)
        elif shard.column == CPT_TASKS:
            for uid in shard.uids.tolist():
                child, parents = tasks.cpt_tasks[uid]
                payloads.append(
                    joint_code_counts(
                        [self.columns[child], *(self.columns[p] for p in parents)],
                        row_counts=self.row_counts,
                        row_firsts=self.row_firsts,
                    )
                )
        elif shard.column == MMPC_TASKS:
            # Worker-side import: the structure package is only needed
            # by structure jobs, and importing it lazily keeps the
            # exec layer's import graph acyclic.
            from repro.bayesnet.structure.mmhc import _AssocCache, _mmpc_core

            alpha, max_condition = tasks.mmpc_params
            columns = dict(zip(self.names, self.columns))
            for uid in shard.uids.tolist():
                target = tasks.mmpc_tasks[uid]
                cache = _AssocCache.from_columns(
                    columns,
                    alpha,
                    max_condition,
                    row_counts=self.row_counts,
                )
                members = sorted(_mmpc_core(self.names, target, cache))
                payloads.append(
                    (members, cache.tests, list(cache._cache.items()))
                )
        elif shard.column == SCORE_TASKS:
            from repro.bayesnet.structure.scores import (
                bdeu_group_score,
                bic_group_score,
                family_group_counts,
                k2_group_score,
            )

            kind, ess, n_rows = tasks.score_params
            index_of = {a: j for j, a in enumerate(self.names)}
            for uid in shard.uids.tolist():
                node, parents = tasks.score_tasks[uid]
                child = self.columns[index_of[node]]
                groups = family_group_counts(
                    [child, *(self.columns[index_of[p]] for p in parents)],
                    row_counts=self.row_counts,
                    row_firsts=self.row_firsts,
                )
                r = len(np.unique(child))
                if kind == "bic":
                    value = bic_group_score(groups, r, n_rows)
                elif kind == "k2":
                    value = k2_group_score(groups, r)
                elif kind == "bdeu":
                    value = bdeu_group_score(groups, r, ess)
                else:
                    raise CleaningError(f"unknown score kind {kind!r}")
                payloads.append(value)
        else:
            raise CleaningError(f"unknown fit task kind {shard.column}")
        return FitShardResult(shard.shard_id, shard.column, shard.uids, payloads)


def build_fit_state(
    encoding,
    names: Sequence[str],
    weights: np.ndarray,
    row_counts: np.ndarray | None = None,
    row_firsts: np.ndarray | None = None,
    n_rows: int | None = None,
) -> FitJobState:
    """The static fit snapshot: coded columns, cardinalities, weights,
    and (for deduplicated streams) multiplicities."""
    return FitJobState(
        [encoding.codes(a) for a in names],
        [encoding.card(a) for a in names],
        weights,
        names=names,
        row_counts=row_counts,
        row_firsts=row_firsts,
        n_rows=n_rows,
    )


def _dispatch_job(
    state: FitJobState,
    tasks: FitTasks,
    work: list,
    sizes: dict[int, int],
    executor: str,
    n_jobs: int,
    session: ExecSession | None,
    span_kwargs: dict,
    counters: dict[str, int],
) -> tuple[dict[int, list], dict]:
    """Plan, dispatch, and deterministically merge one fit job.

    The shared engine behind :func:`run_fit_job`, :func:`run_mmpc_job`,
    and :func:`run_score_job`: cost-balanced shard planning, ``auto``
    resolution (with the sticky warm-pool upgrade), session ownership,
    the ``fit.job`` span, and the by-task-index merge that makes every
    job's output independent of backend, shard count, and completion
    order.  Returns ``(payloads by task kind, diagnostics)``.
    """
    hint = 1 if executor == "serial" else n_jobs * OVERSUBSCRIBE
    plan = plan_shards(work, hint)
    resolved = resolve_executor(
        executor,
        plan.total_cost,
        plan.n_shards,
        n_jobs,
        threshold=AUTO_FIT_COST_THRESHOLD,
    )
    own_session = session is None
    if session is None:
        session = ExecSession(state, n_jobs)
    elif session.state is not state:
        raise CleaningError("run_fit_job session wraps a different snapshot")
    if (
        executor == "auto"
        and resolved == "serial"
        and n_jobs > 1
        and plan.n_shards > 1
        and session.is_warm("process")
    ):
        # An earlier job of this session (the pair build) already paid
        # the pool spawn and the snapshot ship — a later job below the
        # threshold still wins by riding the warm workers rather than
        # idling them (mirrors the stream driver's sticky resolution).
        resolved = "process"
    try:
        # The job span wraps the dispatch (which the session nests its
        # own dispatch + shard spans inside) and carries the task mix,
        # so the job kinds are separable in the trace; the counters make
        # them visible in profile() too.
        with session.tracer.span(
            "fit.job",
            cat="fit",
            backend=resolved,
            n_shards=plan.n_shards,
            **span_kwargs,
        ):
            results = session.dispatch(resolved, tasks, plan.shards)
        for name, value in counters.items():
            session.tracer.add_counter(name, value)
        backend = session.backend(resolved)
    finally:
        if own_session:
            session.close()

    payloads: dict[int, list] = {
        kind: [None] * n for kind, n in sizes.items()
    }
    for result in results:
        target = payloads[result.column]
        for uid, payload in zip(result.uids.tolist(), result.payloads):
            if target[uid] is not None:
                raise CleaningError(
                    f"fit shard {result.shard_id} overlaps task {uid}"
                )
            target[uid] = payload
    if any(p is None for plist in payloads.values() for p in plist):
        raise CleaningError("fit plan left tasks unexecuted")

    diagnostics = {
        "fit_executor": resolved,
        "n_jobs": 1 if resolved == "serial" else n_jobs,
        "n_shards": plan.n_shards,
    }
    for kind, n in sizes.items():
        diagnostics[_TASK_COUNT_KEYS[kind]] = n
    if executor == "auto":
        diagnostics["auto"] = True
    for flag in ("fell_back", "ran_serially", "pool_broken"):
        if getattr(backend, flag, False):
            key = "process_fallback" if flag == "fell_back" else flag
            diagnostics[key] = True
    if diagnostics.get("ran_serially"):
        reason = getattr(backend, "serial_reason", None)
        if reason:
            diagnostics["ran_serially_reason"] = reason
    if getattr(backend, "shm_used", False):
        diagnostics["shm"] = True
    return payloads, diagnostics


_TASK_COUNT_KEYS = {
    PAIR_TASKS: "n_pair_tasks",
    CPT_TASKS: "n_cpt_tasks",
    MMPC_TASKS: "n_mmpc_tasks",
    SCORE_TASKS: "n_score_tasks",
}


def run_fit_job(
    state: FitJobState,
    pair_tasks: Sequence[tuple[int, int]],
    cpt_tasks: Sequence[tuple[int, tuple[int, ...]]],
    executor: str,
    n_jobs: int,
    session: ExecSession | None = None,
) -> tuple[list, list, dict]:
    """Plan, dispatch, and deterministically merge one counting job.

    Returns ``(pair_payloads, cpt_payloads, diagnostics)`` where the
    payload lists align with ``pair_tasks`` / ``cpt_tasks``.  Work is
    cut into cost-balanced shards (cost ∝ rows × columns a task
    touches) and dispatched through ``session`` — the caller's, so
    several jobs (the engine's pair build, then its CPT passes) reuse
    one warm pool and ship ``state`` once; an ephemeral session is
    opened and closed here when none is given.  Because every payload
    is scattered back by its task index, the merge is independent of
    backend, shard count, and completion order.

    ``executor="auto"`` resolves here, after planning: serial unless
    the plan's total rows-touched estimate clears
    :data:`~repro.exec.planner.AUTO_FIT_COST_THRESHOLD` (the resolved
    name lands in the diagnostics next to the requested one).
    """
    pair_tasks = list(pair_tasks)
    cpt_tasks = list(cpt_tasks)
    n_rows = len(state.weights)
    work = []
    if pair_tasks:
        costs = np.full(len(pair_tasks), 2.0 * n_rows, dtype=np.float64)
        work.append(
            (PAIR_TASKS, "__pairs__", np.arange(len(pair_tasks)), costs)
        )
    if cpt_tasks:
        costs = np.array(
            [n_rows * (1.0 + len(ps)) for _, ps in cpt_tasks],
            dtype=np.float64,
        )
        work.append(
            (CPT_TASKS, "__cpts__", np.arange(len(cpt_tasks)), costs)
        )
    payloads, diagnostics = _dispatch_job(
        state,
        FitTasks(tuple(pair_tasks), tuple(cpt_tasks)),
        work,
        {PAIR_TASKS: len(pair_tasks), CPT_TASKS: len(cpt_tasks)},
        executor,
        n_jobs,
        session,
        {"pair_tasks": len(pair_tasks), "cpt_tasks": len(cpt_tasks)},
        {
            "fit_pair_tasks": len(pair_tasks),
            "fit_cpt_tasks": len(cpt_tasks),
        },
    )
    return payloads[PAIR_TASKS], payloads[CPT_TASKS], diagnostics


def run_mmpc_job(
    state: FitJobState,
    targets: Sequence[str],
    alpha: float,
    max_condition: int,
    executor: str,
    n_jobs: int,
    session: ExecSession | None = None,
    tracer=None,
) -> tuple[list, dict]:
    """Run the per-target MMPC scans of the structure search as a fit
    job over the session backends.

    Returns ``(results, diagnostics)`` with one ``(sorted cpc members,
    n_tests, memo items)`` tuple per target, aligned with ``targets``.
    Each worker grows one target's CPC set with a fresh association
    cache over the snapshot's coded columns — per-target caches are
    exact because every memo key an MMPC run produces starts with its
    target, so nothing is shared across targets in the serial path
    either.  The driver absorbs the returned memo items, ending up with
    the same cache a shared serial run would hold.
    """
    if state.names is None:
        raise CleaningError("MMPC job needs a named fit snapshot")
    targets = list(targets)
    n_rows = len(state.weights)
    m = len(state.columns)
    # Every target's scan probes G² tests over all other columns; the
    # per-target cost is flat in expectation, rows × columns.
    costs = np.full(len(targets), float(n_rows) * m, dtype=np.float64)
    work = [(MMPC_TASKS, "__mmpc__", np.arange(len(targets)), costs)]
    payloads, diagnostics = _dispatch_job(
        state,
        FitTasks(
            mmpc_tasks=tuple(targets),
            mmpc_params=(alpha, max_condition),
        ),
        work,
        {MMPC_TASKS: len(targets)},
        executor,
        n_jobs,
        session,
        {"mmpc_tasks": len(targets)},
        {"fit_mmpc_tasks": len(targets)},
    )
    return payloads[MMPC_TASKS], diagnostics


def run_score_job(
    state: FitJobState,
    keys: Sequence[tuple[str, tuple[str, ...]]],
    kind: str,
    ess: float,
    n_rows: int,
    executor: str,
    n_jobs: int,
    session: ExecSession | None = None,
    tracer=None,
) -> tuple[list, dict]:
    """Evaluate family scores ``(node, sorted parents)`` as a fit job.

    Returns ``(values, diagnostics)`` with one float per key, aligned
    with ``keys``.  Workers group family counts with
    :func:`~repro.bayesnet.structure.scores.family_group_counts` and
    apply the same module-level group-score function the driver classes
    delegate to — the identical float operation sequence, so a
    prefetched score primed into the scorer cache is bit-identical to
    the one the driver would have computed.  ``n_rows`` is the score
    normaliser (the stream total for deduplicated streams, the table
    row count otherwise).
    """
    if state.names is None:
        raise CleaningError("score job needs a named fit snapshot")
    keys = list(keys)
    d = len(state.weights)
    costs = np.array(
        [d * (1.0 + len(parents)) for _, parents in keys], dtype=np.float64
    )
    work = [(SCORE_TASKS, "__scores__", np.arange(len(keys)), costs)]
    payloads, diagnostics = _dispatch_job(
        state,
        FitTasks(
            score_tasks=tuple(keys),
            score_params=(kind, float(ess), int(n_rows)),
        ),
        work,
        {SCORE_TASKS: len(keys)},
        executor,
        n_jobs,
        session,
        {"score_tasks": len(keys)},
        {"fit_score_tasks": len(keys)},
    )
    return payloads[SCORE_TASKS], diagnostics


def _resolve_state(
    session: ExecSession | None, encoding, names, weights
) -> FitJobState:
    """The snapshot a job runs against: the session's when one is
    given — verified against the caller's arguments so a session built
    over one table cannot silently count another's columns — a fresh
    one otherwise."""
    if session is None:
        return build_fit_state(encoding, names, weights)
    state = session.state
    if len(state.columns) != len(names) or not np.array_equal(
        state.weights, weights
    ):
        raise CleaningError(
            "fit session snapshot does not match the requested job "
            "(different columns or row weights)"
        )
    return state


def sharded_pair_arrays(
    encoding,
    names: Sequence[str],
    weights: np.ndarray,
    executor: str,
    n_jobs: int,
    session: ExecSession | None = None,
) -> tuple[dict[tuple[str, str], PairArrays], dict]:
    """Build every ordered pair's co-occurrence arrays via the backends.

    Returns the ``pair_arrays`` mapping
    :class:`~repro.core.cooccurrence.CooccurrenceIndex` accepts, plus
    the job diagnostics.  Pass the engine's fit ``session`` to run on
    its warm pool; otherwise an ephemeral one is used.  A session over a
    deduplicated-stream snapshot produces the multiplicity-weighted
    arrays — byte-identical to building over the full stream.
    """
    m = len(names)
    pair_tasks = [(j, k) for j in range(m) for k in range(j + 1, m)]
    state = _resolve_state(session, encoding, names, weights)
    pair_payloads, _, diag = run_fit_job(
        state, pair_tasks, (), executor, n_jobs, session=session
    )
    pairs: dict[tuple[str, str], PairArrays] = {}
    for (j, k), (forward, reverse) in zip(pair_tasks, pair_payloads):
        pairs[(names[j], names[k])] = forward
        pairs[(names[k], names[j])] = reverse
    return pairs, diag


def sharded_family_arrays(
    encoding,
    names: Sequence[str],
    families: Sequence[tuple[str, Sequence[str]]],
    weights: np.ndarray,
    executor: str,
    n_jobs: int,
    session: ExecSession | None = None,
) -> tuple[dict[str, tuple], dict]:
    """Extract the distinct family count arrays of ``families`` via the
    backends (the per-node half of the parallel fit).

    ``families`` lists ``(node, parents)`` in the order the caller wants
    them dispatched; the returned mapping feeds
    :meth:`~repro.bayesnet.model.DiscreteBayesNet.fit_columnar`.  Pass
    the engine's fit ``session`` to reuse the pool (and the coded
    columns already resident in its workers) from the pair job.
    """
    index_of = {a: j for j, a in enumerate(names)}
    cpt_tasks = [
        (index_of[node], tuple(index_of[p] for p in parents))
        for node, parents in families
    ]
    state = _resolve_state(session, encoding, names, weights)
    _, cpt_payloads, diag = run_fit_job(
        state, (), cpt_tasks, executor, n_jobs, session=session
    )
    return {
        node: payload
        for (node, _), payload in zip(families, cpt_payloads)
    }, diag
