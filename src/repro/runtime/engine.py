"""Asynchronous event-driven execution of the supernodal task DAG.

Where :func:`repro.parallel.list_schedule` binds every task to a worker
up front, :func:`dynamic_schedule` decides *at run time*:

* **per-worker ready deques + work stealing** — each worker pops its
  highest-upward-rank ready task; an idle worker steals half of the
  busiest deque from the back (low-priority end), so critical-path work
  stays local and the steal amortizes over several tasks;
* **memory-aware admission** — before a front starts, the runtime
  projects the live update-stack (Liu's accounting from
  :mod:`repro.symbolic.stack`) plus the device high-water mark (the
  grow-only :class:`~repro.gpu.allocator.HighWaterMarkPool` of each
  simulated GPU) and refuses to start the front when the projection
  exceeds the budget — the task is deferred, not dropped.  If deferral
  ever gridlocks the machine (nothing running, nothing admissible), the
  single best task is force-admitted so completion is guaranteed;
* **dispatch-time policy selection** — the placement policy (P1..P4 via
  a hybrid selector) is resolved for the worker that actually picks the
  task up, at the moment it starts; a CPU-only worker transparently
  runs P1;
* **fault tolerance** — injected GPU kernel failures are retried once
  on the same policy, then degraded to host-only P1
  (:mod:`repro.runtime.faults`); transfer stalls add latency.  A faulty
  run *completes*, flagged ``degraded``, rather than raising.

The engine is a deterministic discrete-event simulation on a virtual
clock (:mod:`repro.runtime.events`): identical inputs produce identical
schedules, steal sequences, and fault outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.allocator import DeviceMemoryError
from repro.gpu.clock import SimTask
from repro.multifrontal.frontal import assembly_bytes
from repro.parallel.scheduler import ScheduledTask
from repro.parallel.workers import WorkerPool
from repro.policies.base import Policy, PolicyP1, estimate_policy_time
from repro.runtime.events import EventQueue, ReadyDeque
from repro.runtime.faults import FaultInjector
from repro.symbolic.stack import update_bytes
from repro.symbolic.symbolic import SymbolicFactor

__all__ = [
    "RuntimeStats",
    "RuntimeResult",
    "DynamicRuntime",
    "TaskPricer",
    "dynamic_schedule",
    "schedule_peak_update_bytes",
]


class TaskPricer:
    """Dispatch-time task pricing shared by the dynamic runtime and the
    cluster event loop (:mod:`repro.cluster.runtime`).

    Caches per-``(m, k, has_gpu)`` factor-update durations with the
    policy resolved against a representative worker, assembly times,
    P1 fallback times, upward-rank priorities, and the device
    working-set demand of Section IV-B.  Policies discriminate only on
    GPU presence, so one GPU exemplar and one CPU-only exemplar price
    every worker of that shape.
    """

    def __init__(
        self,
        sf: SymbolicFactor,
        policy: Policy,
        model,
        *,
        gpu_worker=None,
        cpu_worker=None,
    ):
        self.sf = sf
        self.policy = policy
        self.model = model
        self._gpu_worker = gpu_worker
        self._cpu_worker = cpu_worker
        self._p1 = PolicyP1()
        self._kids = sf.schildren()
        # (m, k, has_gpu) -> (fu seconds, resolved policy name)
        self._dur_cache: dict[tuple[int, int, bool], tuple[float, str]] = {}
        # (m, k) -> P1 seconds, for dispatch-time fallbacks
        self._p1_cache: dict[tuple[int, int], float] = {}
        self._asm: np.ndarray | None = None

    def representative(self, has_gpu: bool):
        if has_gpu and self._gpu_worker is not None:
            return self._gpu_worker
        if self._cpu_worker is not None:
            return self._cpu_worker
        return self._gpu_worker

    def assembly_times(self) -> np.ndarray:
        """Per-supernode extend-add assembly seconds (host memory time)."""
        if self._asm is None:
            sf = self.sf
            out = np.zeros(sf.n_supernodes)
            for s in range(sf.n_supernodes):
                out[s] = self.model.host_memory_time(
                    assembly_bytes(
                        sf.rows[s].size,
                        [sf.rows[c].size - sf.width(c) for c in self._kids[s]],
                    )
                )
            self._asm = out
        return self._asm

    def fu_time(self, s: int, has_gpu: bool) -> tuple[float, str]:
        """Dispatch-time policy resolution + isolated F-U seconds."""
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        key = (m, k, has_gpu)
        hit = self._dur_cache.get(key)
        if hit is None:
            worker = self.representative(has_gpu)
            base = (
                self.policy.resolve(m, k, worker)
                if hasattr(self.policy, "resolve")
                else self.policy
            )
            if base.needs_gpu and not has_gpu:
                base = self._p1
            hit = (estimate_policy_time(base, m, k, self.model), base.name)
            self._dur_cache[key] = hit
        return hit

    def p1_time(self, s: int) -> float:
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        key = (m, k)
        hit = self._p1_cache.get(key)
        if hit is None:
            hit = estimate_policy_time(self._p1, m, k, self.model)
            self._p1_cache[key] = hit
        return hit

    def upward_ranks(self, has_gpu: bool) -> np.ndarray:
        """Task priority: seconds from the task to the root, inclusive —
        the upward rank the static list scheduler uses, priced on the
        best (GPU if any) worker shape."""
        sf = self.sf
        asm = self.assembly_times()
        dur = np.array(
            [self.fu_time(s, has_gpu)[0] + asm[s]
             for s in range(sf.n_supernodes)]
        )
        rank = dur.copy()
        for s in sf.spost[::-1]:  # parents before children
            parent = int(sf.sparent[s])
            if parent >= 0:
                rank[int(s)] = dur[int(s)] + rank[parent]
        return rank

    def device_demand(self, name: str, m: int, k: int) -> int:
        """Device words a policy's working set needs, per the transfer
        volumes of Section IV-B (Equation 2)."""
        word = self.model.gpu_word
        if name == "P2":
            return (m * k + m * m) * word
        if name.startswith("P3"):
            return (k * k + m * k + m * m) * word
        if name.startswith("P4"):
            return (m + k) * (m + k) * word
        return 0


@dataclass
class RuntimeStats:
    """Counters the event loop accumulates; exported via ``metrics()``."""

    steals: int = 0                 # steal transactions (thief-side)
    stolen_tasks: int = 0           # tasks that changed owner
    admission_deferrals: int = 0    # times a ready task was skipped for memory
    forced_admissions: int = 0      # budget overridden to avoid gridlock
    cpu_fallbacks: int = 0          # GPU policy resolved on a CPU-only worker
    device_fallbacks: int = 0       # front larger than device memory
    kernel_retries: int = 0         # failed device attempts that were retried
    degraded_tasks: int = 0         # tasks that ended on P1 after two failures
    transfer_stalls: int = 0
    peak_stack_bytes: int = 0       # update-stack high-water (Liu accounting)
    device_high_water: int = 0      # max device-pool capacity seen
    peak_admitted_bytes: int = 0    # max of (stack + device) the admission saw


@dataclass
class RuntimeResult:
    """Outcome of one dynamic run: schedule + spans + counters."""

    makespan: float
    schedule: list[ScheduledTask]
    worker_busy: list[float]
    stats: RuntimeStats
    spans: list[SimTask] = field(default_factory=list)
    degraded_set: frozenset = frozenset()
    memory_budget: int | None = None

    @property
    def degraded(self) -> bool:
        """True when any task fell back to P1 after injected failures."""
        return bool(self.degraded_set)

    def utilization(self) -> float:
        if not self.worker_busy or self.makespan <= 0:
            return 0.0
        return float(np.mean(self.worker_busy) / self.makespan)

    def metrics(self):
        """Counters + duration histogram + spans as a
        :class:`repro.service.metrics.ServiceMetrics` (same export
        surface as the serving layer: ``report()``, ``chrome_trace()``).
        """
        from repro.service.metrics import ServiceMetrics

        m = ServiceMetrics()
        s = self.stats
        for name, value in (
            ("tasks", len(self.schedule)),
            ("steals", s.steals),
            ("stolen_tasks", s.stolen_tasks),
            ("admission_deferrals", s.admission_deferrals),
            ("forced_admissions", s.forced_admissions),
            ("cpu_fallbacks", s.cpu_fallbacks),
            ("device_fallbacks", s.device_fallbacks),
            ("kernel_retries", s.kernel_retries),
            ("degraded_tasks", s.degraded_tasks),
            ("transfer_stalls", s.transfer_stalls),
        ):
            if value:
                m.incr(name, value)
        m.gauge("peak_stack_bytes", float(s.peak_stack_bytes))
        m.gauge("device_high_water", float(s.device_high_water))
        m.gauge("peak_admitted_bytes", float(s.peak_admitted_bytes))
        for t in self.schedule:
            m.observe("task", t.elapsed)
        for w, busy in enumerate(self.worker_busy):
            m.gauge(f"worker{w}_busy_seconds", busy)
        for span in self.spans:
            m.span(span.name, span.category, span.engine, span.start, span.end)
        return m

    def validate(self, sf) -> list[str]:
        """Verify this schedule against the symbolic tree's invariants.

        Delegates to :mod:`repro.verify.invariants`: every supernode ran
        exactly once, no parent started before its children finished,
        and the execution order conserves the update stack (each
        extend-add produced once and consumed exactly once).  Returns
        the list of violations (empty = valid).
        """
        from repro.verify.invariants import (
            check_schedule_precedence,
            check_update_conservation,
        )

        order = [t.sid for t in sorted(self.schedule, key=lambda t: t.end)]
        return (
            check_schedule_precedence(sf, self.schedule)
            + check_update_conservation(sf, order)
        )

    def chrome_trace(self) -> dict:
        from repro.gpu.trace import tasks_to_chrome_trace

        return tasks_to_chrome_trace(self.spans)


def schedule_peak_update_bytes(
    sf: SymbolicFactor, schedule: list[ScheduledTask]
) -> int:
    """Peak live update-stack bytes of an already-timed schedule.

    Uses the runtime's (conservative) dispatch-time accounting: a task's
    children are freed when it *starts* (assembly consumes them) and its
    own update is charged from its start, so concurrent tasks' future
    outputs count as live.  On a serial schedule this coincides with
    :func:`repro.symbolic.stack.estimate_peak_update_bytes`; on a
    parallel one it prices what the machine must actually hold.
    """
    kids = sf.schildren()
    order = sorted(schedule, key=lambda t: (t.start, t.end, t.sid))
    live = 0
    peak = 0
    for t in order:
        for c in kids[t.sid]:
            live -= update_bytes(sf, c)
        live += update_bytes(sf, t.sid)
        peak = max(peak, live)
    return peak


@dataclass
class _Running:
    sid: int
    start: float
    end: float
    policy: str
    device_bytes: int
    degraded: bool


class DynamicRuntime:
    """One dynamic execution of ``sf``'s task DAG over ``pool``.

    Build it, call :meth:`run`, read the :class:`RuntimeResult`.  The
    class exists (rather than a closure) so tests can poke at the
    intermediate state; :func:`dynamic_schedule` is the public one-shot
    entry point.
    """

    def __init__(
        self,
        sf: SymbolicFactor,
        policy: Policy,
        pool: WorkerPool,
        *,
        memory_budget: int | None = None,
        faults: FaultInjector | None = None,
        seed_worker: int = 0,
    ):
        self.sf = sf
        self.policy = policy
        self.pool = pool
        self.memory_budget = memory_budget
        self.faults = faults
        self.seed_worker = int(seed_worker) % max(1, pool.n_workers)
        self.stats = RuntimeStats()

        self._kids = sf.schildren()
        self._model = pool.node.model
        cpu_rep = None
        for w in pool.workers:
            if not w.has_gpu:
                cpu_rep = w
                break
        if cpu_rep is None:
            cpu_rep = pool.workers[0]
        self._pricer = TaskPricer(
            sf, policy, self._model,
            gpu_worker=pool.gpu_worker(), cpu_worker=cpu_rep,
        )
        self._asm = self._pricer.assembly_times()
        self._rank = self._pricer.upward_ranks(pool.gpu_worker() is not None)

    # ------------------------------------------------------------------
    # static pre-computation (delegated to the shared TaskPricer)
    # ------------------------------------------------------------------
    def _fu_time(self, s: int, has_gpu: bool) -> tuple[float, str]:
        return self._pricer.fu_time(s, has_gpu)

    def _p1_time(self, s: int) -> float:
        return self._pricer.p1_time(s)

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def _device_demand(self, name: str, m: int, k: int) -> int:
        return self._pricer.device_demand(name, m, k)

    def _device_high_water(self) -> int:
        caps = [
            getattr(w.gpu.device_pool, "capacity", 0)
            for w in self.pool.workers if w.has_gpu
        ]
        return max(caps) if caps else 0

    def _freed_bytes(self, s: int) -> int:
        return sum(update_bytes(self.sf, c) for c in self._kids[s])

    def _projected(self, s: int, demand_hint: int = 0) -> int:
        stack = self._live - self._freed_bytes(s) + update_bytes(self.sf, s)
        return stack + max(self._device_high_water(), demand_hint)

    def _admissible(self, s: int) -> bool:
        if self.memory_budget is None:
            return True
        return self._projected(s) <= self.memory_budget

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self) -> RuntimeResult:
        sf = self.sf
        n = sf.n_supernodes
        p = self.pool.n_workers
        self._events = EventQueue()
        self._deques = [ReadyDeque() for _ in range(p)]
        self._running: dict[int, _Running] = {}
        self._n_pending = np.array([len(self._kids[s]) for s in range(n)])
        self._live = 0
        self._schedule: list[ScheduledTask] = []
        self._spans: list[SimTask] = []
        self._busy = [0.0] * p
        self._degraded: set[int] = set()
        self._done = 0

        # all initially-ready tasks are seeded onto one worker: the others
        # bootstrap by stealing, exactly like a work-stealing runtime
        # whose root task spawns the frontier
        for s in range(n):
            if self._n_pending[s] == 0:
                self._deques[self.seed_worker].push(float(self._rank[s]), s, s)

        while self._done < n:
            progress = True
            while progress:
                progress = False
                for w in range(p):
                    if w not in self._running and self._try_dispatch(w):
                        progress = True
            if not self._running:
                self._force_admit()
            ev = self._events.pop()
            self._complete(ev.payload)

        if any(len(d) for d in self._deques):
            raise AssertionError("runtime finished with tasks still queued")
        makespan = max((t.end for t in self._schedule), default=0.0)
        self._schedule.sort(key=lambda t: (t.start, t.sid))
        return RuntimeResult(
            makespan=makespan,
            schedule=self._schedule,
            worker_busy=self._busy,
            stats=self.stats,
            spans=self._spans,
            degraded_set=frozenset(self._degraded),
            memory_budget=self.memory_budget,
        )

    # -- dispatch ----------------------------------------------------------
    def _try_dispatch(self, w: int) -> bool:
        own = self._deques[w]
        if not own:
            if not self._steal_into(w):
                return False
        for s in own.peek_all():
            if self._admissible(s):
                own.remove(s)
                self._start(w, s)
                return True
            self.stats.admission_deferrals += 1
        return False

    def _steal_into(self, w: int) -> bool:
        """Steal half of the busiest other deque (from the back)."""
        victims = [
            v for v in range(self.pool.n_workers)
            if v != w and len(self._deques[v]) > 0
        ]
        if not victims:
            return False
        victim = max(victims, key=lambda v: (len(self._deques[v]), -v))
        loot = self._deques[victim].steal_back(
            (len(self._deques[victim]) + 1) // 2
        )
        for s in loot:
            self._deques[w].push(float(self._rank[s]), s, s)
        self.stats.steals += 1
        self.stats.stolen_tasks += len(loot)
        return True

    def _force_admit(self) -> None:
        """Nothing running and nothing admissible: the budget cannot be
        honored by waiting, so admit the ready task with the *smallest*
        memory projection — the least possible overshoot — counted so
        the caller can see the budget was infeasible."""
        best_w, best_s = -1, -1
        best_key: tuple[int, float, int] | None = None
        for w, dq in enumerate(self._deques):
            for s in dq.peek_all():
                key = (self._projected(s), -float(self._rank[s]), s)
                if best_key is None or key < best_key:
                    best_w, best_s, best_key = w, s, key
        if best_s < 0:
            raise AssertionError("runtime gridlock with no ready tasks")
        self._deques[best_w].remove(best_s)
        self.stats.forced_admissions += 1
        self._start(best_w, best_s)

    def _start(self, w: int, s: int) -> None:
        t0 = self._events.clock.now
        worker = self.pool.workers[w]
        m = self.sf.update_size(s)
        k = self.sf.width(s)
        fu, name = self._fu_time(s, worker.has_gpu)
        if not worker.has_gpu and self.pool.gpu_worker() is not None:
            # dispatch-time selection picked the host path only because
            # this worker owns no GPU; a GPU worker would have offloaded
            if self._fu_time(s, True)[1] != "P1":
                self.stats.cpu_fallbacks += 1

        alloc_cost = 0.0
        stall = 0.0
        wasted = 0.0
        degraded = False
        device_bytes = 0
        if name != "P1" and worker.has_gpu:
            demand = self._device_demand(name, m, k)
            try:
                alloc_cost = worker.gpu.device_pool.request(demand)
                device_bytes = demand
            except DeviceMemoryError:
                # front larger than the device: run on the host instead,
                # mirroring the numeric driver's fallback
                self.stats.device_fallbacks += 1
                fu, name = self._p1_time(s), "P1"
            if name != "P1" and self.faults is not None:
                stall = self.faults.transfer_stall(s)
                if stall > 0.0:
                    self.stats.transfer_stalls += 1
                if self.faults.kernel_fails(s, 0):
                    wasted += self.faults.failure_point * fu
                    self.stats.kernel_retries += 1
                    if self.faults.kernel_fails(s, 1):
                        # second failure: degrade to host-only execution
                        wasted += self.faults.failure_point * fu
                        fu, name = self._p1_time(s), "P1"
                        degraded = True
                        self.stats.degraded_tasks += 1

        duration = float(self._asm[s]) + fu + alloc_cost + stall + wasted
        # Liu accounting, charged conservatively at dispatch: children are
        # consumed by the assembly, our own update is budgeted up front
        self._live -= self._freed_bytes(s)
        self._live += update_bytes(self.sf, s)
        self.stats.peak_stack_bytes = max(self.stats.peak_stack_bytes, self._live)
        self.stats.device_high_water = max(
            self.stats.device_high_water, self._device_high_water()
        )
        self.stats.peak_admitted_bytes = max(
            self.stats.peak_admitted_bytes,
            self._live + self._device_high_water(),
        )
        run = _Running(s, t0, t0 + duration, name, device_bytes, degraded)
        self._running[w] = run
        self._events.push(run.end, w)

    # -- completion --------------------------------------------------------
    def _complete(self, w: int) -> None:
        run = self._running.pop(w)
        worker = self.pool.workers[w]
        if run.device_bytes and worker.has_gpu:
            worker.gpu.device_pool.release(run.device_bytes)
        self._schedule.append(
            ScheduledTask(run.sid, w, run.start, run.end, run.policy, False)
        )
        span = SimTask(
            f"s{run.sid}:{run.policy}", worker.cpu_engine,
            run.end - run.start, (), "fu",
        )
        span.start = run.start
        span.end = run.end
        self._spans.append(span)
        self._busy[w] += run.end - run.start
        if run.degraded:
            self._degraded.add(run.sid)
        self._done += 1
        parent = int(self.sf.sparent[run.sid])
        if parent >= 0:
            self._n_pending[parent] -= 1
            if self._n_pending[parent] == 0:
                # locality: the parent becomes ready on the worker that
                # finished its last child
                self._deques[w].push(float(self._rank[parent]), parent, parent)


def dynamic_schedule(
    sf: SymbolicFactor,
    policy: Policy,
    pool: WorkerPool,
    *,
    memory_budget: int | None = None,
    faults: FaultInjector | None = None,
    seed_worker: int = 0,
) -> RuntimeResult:
    """Run the dynamic event-driven runtime over ``sf``'s task DAG.

    Parameters
    ----------
    sf, policy, pool :
        Exactly the inputs of :func:`repro.parallel.list_schedule`.
    memory_budget : int, optional
        Bytes the projected update-stack plus the device high-water mark
        may not exceed; ``None`` disables admission control.
    faults : FaultInjector, optional
        Injectable GPU kernel failures / transfer stalls.
    seed_worker : int
        Worker whose deque receives the initial frontier (others steal).
    """
    return DynamicRuntime(
        sf, policy, pool,
        memory_budget=memory_budget, faults=faults, seed_worker=seed_worker,
    ).run()
