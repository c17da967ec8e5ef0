"""Numeric multifrontal factorization: price, then compute.

Every factorization is two passes over the supernodal tree.

* **Pricing.**  The serial pricing walk charges each supernode's
  assembly on the host engine, plans its factor-update call under the
  base policy its shape resolves to (falling back to the host P1 plan
  when the front does not fit in device memory) and schedules the plan
  on the node's engines.  It touches no matrix entry.
  :func:`replay_factorize` is this walk on its own; the parallel
  backends price with their own schedulers instead.
* **Numerics.**  :func:`postorder_numeric_factor` assembles every front,
  runs the factor-update numerics of the base policy the pricing handed
  it for that supernode, and passes the update matrix up the tree.  It
  is the one numeric loop of every backend, so their factors are
  bit-identical whenever their base policies agree.

:func:`factorize_numeric` is the serial walk followed by the loop.  The
simulated makespan of a factorization is the node's final engine time;
per-call records carry the per-component busy times that Figures 2/5/6
and Table IV are built from.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dense.kernels import NotPositiveDefiniteError
from repro.gpu.allocator import DeviceMemoryError
from repro.gpu.clock import SimTask, TaskGraph, schedule_graph
from repro.gpu.device import SimulatedNode
from repro.matrices.csc import CSCMatrix
from repro.multifrontal.batched import (
    BatchGroup,
    BatchParams,
    batched_factor_update,
    p1_batch_groups,
)
from repro.multifrontal.frontal import (
    assemble_front_planned,
    assembly_bytes,
    get_assembly_plan,
)
from repro.policies.base import Policy, PolicyP1, Worker
from repro.symbolic.symbolic import SymbolicFactor, factor_update_flops

__all__ = [
    "FURecord",
    "NumericFactor",
    "ReplayResult",
    "factorize_numeric",
    "postorder_numeric_factor",
    "replay_factorize",
    "resolve_policies",
    "scheduled_factorize",
]


@dataclass(frozen=True)
class FURecord:
    """Instrumentation record of one factor-update call."""

    sid: int
    m: int
    k: int
    policy: str
    start: float
    end: float
    components: dict[str, float]     # busy seconds per category
    flops: tuple[float, float, float]  # (N_P, N_T, N_S)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def total_flops(self) -> float:
        return float(sum(self.flops))


@dataclass
class NumericFactor:
    """The computed factor plus everything the analysis layer wants."""

    sf: SymbolicFactor
    panels: list[np.ndarray]        # per-supernode (rows x k) [L1; L2]
    records: list[FURecord]
    makespan: float                 # simulated seconds, end-to-end
    node: SimulatedNode
    peak_update_bytes: int = 0
    assembly_seconds: float = 0.0
    #: batched small-front execution: stacked calls issued / fronts they
    #: covered (both 0 when batching was off or found nothing to group)
    batch_tasks: int = 0
    batched_fronts: int = 0

    @property
    def n(self) -> int:
        return self.sf.n

    @property
    def task_dispatches(self) -> int:
        """Number of per-front work dispatches the factorization issued:
        every unbatched supernode is one dispatch, every batch group one."""
        return self.sf.n_supernodes - self.batched_fronts + self.batch_tasks

    def simulated_time(self) -> float:
        return self.makespan

    def l_matrix(self) -> CSCMatrix:
        """Materialize L as a sparse matrix (mainly for tests/validation)."""
        rows_all, cols_all, vals_all = [], [], []
        for s in range(self.sf.n_supernodes):
            f = int(self.sf.super_ptr[s])
            k = self.sf.width(s)
            rows = self.sf.rows[s]
            panel = self.panels[s]
            for j in range(k):
                rr = rows[j:]
                rows_all.append(rr)
                cols_all.append(np.full(rr.size, f + j, dtype=np.int64))
                vals_all.append(panel[j:, j])
        return CSCMatrix.from_coo(
            np.concatenate(rows_all),
            np.concatenate(cols_all),
            np.concatenate(vals_all),
            (self.n, self.n),
        )

    def log_determinant(self) -> float:
        """``log det A = 2 * sum(log diag(L))`` — free with the factor
        (one of the classic byproducts of a direct method)."""
        total = 0.0
        for s in range(self.sf.n_supernodes):
            k = self.sf.width(s)
            d = np.diagonal(self.panels[s][:k, :k])
            if np.any(d <= 0):
                raise ValueError("factor has non-positive pivots")
            total += float(np.log(d).sum())
        return 2.0 * total

    def residual_norm(self, a: CSCMatrix) -> float:
        """``max |P A P^T - L L^T|`` via a randomized probe: compares
        ``L (L^T v)`` with ``(P A P^T) v`` for a few vectors (avoids
        materializing L L^T for large problems)."""
        ap = a.permute_symmetric(self.sf.perm)
        l = self.l_matrix()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(3):
            v = rng.normal(size=self.n)
            lhs = l.matvec(l.rmatvec(v))
            rhs = ap.matvec(v)
            denom = np.abs(rhs).max() + 1.0
            worst = max(worst, float(np.abs(lhs - rhs).max() / denom))
        return worst


def resolve_policies(
    sf: SymbolicFactor, policy: Policy, worker: Worker
) -> list[Policy]:
    """The base policy of every supernode: ``policy`` itself, or the
    choice of a hybrid selector resolved against ``worker`` once per
    front shape ``(m, k)`` (a selector decides on the shape alone)."""
    if not hasattr(policy, "resolve"):
        return [policy] * sf.n_supernodes
    by_shape: dict[tuple[int, int], Policy] = {}
    bases = []
    for s in range(sf.n_supernodes):
        shape = (sf.update_size(s), sf.width(s))
        if shape not in by_shape:
            by_shape[shape] = policy.resolve(*shape, worker)
        bases.append(by_shape[shape])
    return bases


_P1 = PolicyP1()


@dataclass
class _Priced:
    """What the serial pricing walk hands to the numeric loop."""

    records: list[FURecord]
    bases: list[Policy]        # per supernode, after memory fallbacks
    groups: list[BatchGroup]
    assembly_seconds: float


def _serial_worker(node: SimulatedNode) -> Worker:
    return Worker(node.cpus[0].engine, node.gpus[0] if node.gpus else None)


def _price_group(
    g: BatchGroup, worker: Worker, node: SimulatedNode
) -> tuple[SimTask, float, dict[str, float], float]:
    """One dispatched task chain for a whole batch group: assembly of all
    members, then the P1 kernel sequence at B-scaled durations.

    Returns the chain's last task, its start, the per-front kernel times
    and the assembly seconds charged.
    """
    model = node.model
    b = len(g)
    t_asm = b * model.host_memory_time(assembly_bytes(g.size, []))
    tag = f"batch:{g.size}x{g.k}"
    graph = TaskGraph()
    last = graph.add(f"assemble:{tag}", worker.cpu_engine, t_asm, (), "assemble")
    single = {"potrf": model.kernel_time("cpu", "potrf", k=g.k)}
    if g.m > 0:
        single["trsm"] = model.kernel_time("cpu", "trsm", m=g.m, k=g.k)
        single["syrk"] = model.kernel_time("cpu", "syrk", m=g.m, k=g.k)
    for kernel, t in single.items():
        last = graph.add(
            f"{kernel}:{tag}", worker.cpu_engine, b * t, (last,), kernel
        )
    schedule_graph(graph, engines=node.engines)
    return last, graph.tasks[0].start, single, t_asm


def _price_walk(
    sf: SymbolicFactor,
    policy: Policy,
    node: SimulatedNode,
    order: Sequence[int],
    batching: BatchParams | None = None,
) -> _Priced:
    """Price the supernodes of ``order`` serially on worker 0 of ``node``.

    ``order`` is a postorder of the tree, or the part of one that a
    partial factorization eliminates.  The policy is resolved once per
    front shape; batch groups of host-P1 leaves are priced as one chain
    each, at the turn of their first member.
    """
    worker = _serial_worker(node)
    model = node.model
    bases = resolve_policies(sf, policy, worker)
    groups = p1_batch_groups(sf, bases, batching)
    batch_of = {sid: g for g in groups for sid in g.sids}
    group_span: dict[BatchGroup, tuple[SimTask, float, dict[str, float], float]] = {}
    kids = sf.schildren()
    final_task: dict[int, SimTask] = {}
    records: list[FURecord] = []
    assembly_seconds = 0.0
    for s in order:
        s = int(s)
        g = batch_of.get(s)
        if g is not None:
            if g not in group_span:
                group_span[g] = _price_group(g, worker, node)
                assembly_seconds += group_span[g][3]
            last, start, single, _ = group_span[g]
            final_task[s] = last
            records.append(
                FURecord(
                    sid=s, m=g.m, k=g.k, policy="P1",
                    start=start, end=last.end, components=dict(single),
                    flops=factor_update_flops(g.m, g.k),
                )
            )
            continue
        k = sf.width(s)
        m = sf.update_size(s)
        t_asm = model.host_memory_time(
            assembly_bytes(sf.rows[s].size, [sf.update_size(c) for c in kids[s]])
        )
        assembly_seconds += t_asm
        asm_graph = TaskGraph()
        deps = tuple(final_task[c] for c in kids[s] if c in final_task)
        asm = asm_graph.add(f"assemble:{s}", worker.cpu_engine, t_asm, deps, "assemble")
        schedule_graph(asm_graph, engines=node.engines)
        try:
            graph = TaskGraph()
            plan = bases[s].plan(m, k, worker, model, graph, (asm,))
        except DeviceMemoryError:
            # the front does not fit on the device ("the memory
            # limitations of GPU ... requires deployment and coordination
            # among multiple CPUs and GPUs to handle large matrices",
            # Section IV-B) — the host prices, and later computes, it
            bases[s] = _P1
            graph = TaskGraph()
            plan = _P1.plan(m, k, worker, model, graph, (asm,))
        schedule_graph(graph, engines=node.engines)
        final_task[s] = plan.final
        records.append(
            FURecord(
                sid=s, m=m, k=k, policy=bases[s].name,
                start=min(t.start for t in graph.tasks), end=plan.final.end,
                components=plan.duration_by_category(),
                flops=factor_update_flops(m, k),
            )
        )
    return _Priced(records, bases, groups, assembly_seconds)


def postorder_numeric_factor(
    a: CSCMatrix,
    sf: SymbolicFactor,
    bases: list[Policy],
    worker: Worker,
    *,
    order: Sequence[int] | None = None,
    groups: Sequence[BatchGroup] = (),
) -> tuple[list[np.ndarray | None], dict[int, np.ndarray], int]:
    """The one numeric loop: factor the supernodes of ``order`` (default
    ``sf.spost``) of ``P A P^T``, running ``bases[s]`` numerics on
    ``worker`` for supernode ``s``.

    Members of ``groups`` (host-P1 leaves of one front shape) are
    factored by one stacked call at the turn of their first member;
    every slice is bit-identical to the per-front path.

    Returns the panels (``None`` for supernodes outside ``order``), the
    update matrices no factored parent consumed — the Schur complement
    contributions of a partial factorization, in the order they were
    produced — and the peak bytes of live update matrices.
    """
    order = sf.spost if order is None else order
    a_lower = a.permute_symmetric(sf.perm).lower_triangle()
    # index construction (scatter destinations, extend-add positions) is
    # pattern-only work: precomputed once and cached on sf, so repeated
    # factorizations of the same structure skip it entirely
    plan = get_assembly_plan(a_lower, sf)
    a_data = a_lower.data
    kids = sf.schildren()
    batch_of = {sid: g for g in groups for sid in g.sids}
    stacked: dict[int, np.ndarray] = {}
    panels: list[np.ndarray | None] = [None] * sf.n_supernodes
    updates: dict[int, np.ndarray] = {}
    live_update_bytes = peak_update_bytes = 0
    for s in order:
        s = int(s)
        g = batch_of.get(s)
        k = sf.width(s)
        if g is not None:
            if s not in stacked:
                stack = np.empty((len(g), g.size, g.size), dtype=np.float64)
                for i, sid in enumerate(g.sids):
                    stack[i] = assemble_front_planned(plan, a_data, g.size, sid, [])
                batched_factor_update(stack, g.k, g.sids)
                stacked.update(zip(g.sids, stack))
            front = stacked.pop(s)
        else:
            child_updates = [(c, updates.pop(c)) for c in kids[s] if c in updates]
            live_update_bytes -= sum(u.size * 8 for _, u in child_updates)
            front = assemble_front_planned(
                plan, a_data, sf.rows[s].size, s, child_updates
            )
            try:
                bases[s].apply(front, k, worker)
            except NotPositiveDefiniteError as exc:
                f_col = int(sf.super_ptr[s])
                raise NotPositiveDefiniteError(
                    f"matrix is not positive definite: Cholesky broke down in "
                    f"supernode {s} (permuted columns {f_col}..{f_col + k - 1}, "
                    f"original column ~{int(sf.perm[f_col])}): {exc}"
                ) from exc
        panels[s] = front[:, :k].copy()
        if front.shape[0] > k:
            u = front[k:, k:].copy()
            updates[s] = u
            live_update_bytes += u.size * 8
            peak_update_bytes = max(peak_update_bytes, live_update_bytes)
    if updates and len(order) == sf.n_supernodes:
        raise AssertionError("unconsumed update matrices: symbolic tree broken")
    return panels, updates, peak_update_bytes


def factorize_numeric(
    a: CSCMatrix,
    sf: SymbolicFactor,
    policy: Policy,
    *,
    node: SimulatedNode | None = None,
    spost: "np.ndarray | None" = None,
    batching: BatchParams | None = None,
) -> NumericFactor:
    """Factor ``P A P^T = L L^T`` under ``policy`` on a (possibly fresh)
    simulated node, serially on worker 0: the pricing walk, then the
    numeric loop with the base policy the walk chose for each supernode.

    Parameters
    ----------
    a : CSCMatrix
        The original SPD matrix (full symmetric or lower storage).
    sf : SymbolicFactor
        Result of :func:`repro.symbolic.symbolic_factorize` on ``a``.
    policy : Policy
        A base policy or hybrid selector.
    node : SimulatedNode, optional
        Simulated hardware; defaults to one CPU + one GPU with the
        Tesla-T10 calibration.
    spost : array, optional
        Alternative supernode schedule (must be a valid postorder, e.g.
        from :func:`repro.symbolic.stack.stack_minimizing_postorder`);
        defaults to ``sf.spost``.  Both passes walk it.
    batching : BatchParams, optional
        Batch same-shape leaf fronts at or below ``front_cutoff`` rows
        into single stacked kernel calls (host P1 groups only; numerics
        are bit-identical to the per-front path).  Default: off.
    """
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    order = sf.spost if spost is None else np.asarray(spost, dtype=np.int64)
    priced = _price_walk(sf, policy, node, order, batching)
    panels, _, peak = postorder_numeric_factor(
        a, sf, priced.bases, _serial_worker(node),
        order=order, groups=priced.groups,
    )
    return NumericFactor(
        sf=sf,
        panels=panels,
        records=priced.records,
        makespan=node.now,
        node=node,
        peak_update_bytes=peak,
        assembly_seconds=priced.assembly_seconds,
        batch_tasks=len(priced.groups),
        batched_fronts=sum(len(g) for g in priced.groups),
    )


def scheduled_factorize(
    a: CSCMatrix,
    sf: SymbolicFactor,
    bases: list[Policy],
    worker: Worker,
    node: SimulatedNode,
    schedule,
    *,
    makespan: float,
    groups: Sequence[BatchGroup] = (),
) -> NumericFactor:
    """Numerics for a schedule priced by a parallel engine (the static
    list scheduler, the dynamic runtime, the cluster event loop).

    The panels come from :func:`postorder_numeric_factor` in canonical
    postorder on ``worker``, whatever order the schedule ran in; the
    records carry each supernode's scheduled start, end and policy.
    """
    panels, _, peak = postorder_numeric_factor(a, sf, bases, worker, groups=groups)
    by_sid = {t.sid: t for t in schedule}
    records = []
    for s in sf.spost:
        t = by_sid[int(s)]
        m, k = sf.update_size(t.sid), sf.width(t.sid)
        records.append(
            FURecord(
                sid=t.sid, m=m, k=k, policy=t.policy, start=t.start, end=t.end,
                components={}, flops=factor_update_flops(m, k),
            )
        )
    return NumericFactor(
        sf=sf,
        panels=panels,
        records=records,
        makespan=makespan,
        node=node,
        peak_update_bytes=peak,
        batch_tasks=len(groups),
        batched_fronts=sum(len(g) for g in groups),
    )


@dataclass
class ReplayResult:
    """Timing-only walk of a factorization (no floating-point work).

    Produced by :func:`replay_factorize`: it is the pricing walk of
    :func:`factorize_numeric` — same task graphs, same engine
    contention, same records — without the numeric loop.  The benchmark
    harness uses this for policy comparisons; numeric correctness is
    established separately by the test suite and the validation bench.
    """

    sf: SymbolicFactor
    records: list[FURecord]
    makespan: float
    node: SimulatedNode
    assembly_seconds: float = 0.0

    def simulated_time(self) -> float:
        return self.makespan


def replay_factorize(
    sf: SymbolicFactor,
    policy: Policy,
    *,
    node: SimulatedNode | None = None,
    spost: "np.ndarray | None" = None,
) -> ReplayResult:
    """Walk the supernodal tree charging simulated time under ``policy``
    without performing numerics.

    This is the pricing walk of :func:`factorize_numeric` (without
    batching), so the makespan and the per-call records equal those of
    a numeric run field for field; only the frontal matrices are never
    touched.
    """
    if node is None:
        node = SimulatedNode(n_cpus=1, n_gpus=1)
    priced = _price_walk(sf, policy, node, sf.spost if spost is None else spost)
    return ReplayResult(
        sf=sf, records=priced.records, makespan=node.now, node=node,
        assembly_seconds=priced.assembly_seconds,
    )
