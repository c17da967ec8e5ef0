"""The four workloads.

A workload object is built once per set-up (the runner times the
constructor as ``setup_s``) and then runs *rounds*: a fixed list of
operations.  A run always ends on a round boundary, so every run
attempts the same operations in the same proportions, whatever its
length.  Each operation is timed on its own and checked with
:mod:`checks`; ``sim_s`` and ``nnz`` hold the simulated factor seconds
and the entries of L of the factorizations or pricing calls of one
round.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import repro.autotune as autotune
import repro.cluster as cluster
import repro.gpu as gpu
import repro.matrices as matrices
import repro.multifrontal.numeric as numeric
import repro.parallel as parallel
import repro.policies as policies
import repro.runtime as runtime
import repro.workload as workload
from repro.api import ApiApp, InProcessClient, encode_matrix
from repro.multifrontal import SparseCholeskySolver
from repro.service import SolverService

import checks


@dataclass
class OpResult:
    kind: str
    wall: float
    #: None, or why the operation failed: "exception", "status" (a
    #: non-2xx answer where a 2xx was due) or "check"
    failure: str | None = None
    #: the failure is the named, known fault of the non-finite slice
    known: bool = False


def timed(tracer, op_id: str, fn):
    """Run ``fn()`` as one operation: (result, wall seconds, exception)."""
    span = tracer.begin_op(op_id) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:
        result, error = None, exc
    wall = time.perf_counter() - t0
    if span is not None:
        tracer.end_op(span)
    return result, wall, error


class Workload:
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats = 3
    #: rounds a run makes at least / at most (None: as many as fit)
    min_rounds = 1
    max_rounds: int | None = None

    sim_s = 0.0
    nnz = 0

    def run_round(self, index: int, tracer=None) -> list[OpResult]:
        raise NotImplementedError

    def begin_measure(self) -> None:
        """Start the figures of :meth:`layer_metrics` afresh: the runner
        calls this before the rounds it measures."""

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures the workload reads from the program itself,
        over the rounds since :meth:`begin_measure`."""
        return {}

    def close(self) -> None:
        pass


def _grid(kind: str, extent, rng):
    """A 3-D Laplacian ("lap") or 3-dof elasticity ("ela") grid with
    seeded coefficients."""
    shift = float(rng.uniform(0.03, 0.08))
    if kind == "lap":
        return matrices.grid_laplacian_3d(*extent, shift=shift)
    return matrices.elasticity_3d(
        *extent, coupling=float(rng.uniform(0.25, 0.35)), shift=shift
    )


def _scaled_data(a, d, shift: float) -> np.ndarray:
    """Values of ``D A D + shift I`` on ``a``'s pattern, ``D = diag(d)``:
    SPD for SPD ``A``, positive ``d`` and ``shift >= 0``."""
    cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
    return d[a.indices] * d[cols] * a.data + shift * (a.indices == cols)


# ----------------------------------------------------------------------
class ColdSolve(Workload):
    """Never-seen patterns solved from scratch with the library defaults."""

    #: two rounds at least: with one, the tail rests on the largest
    #: solves of the run alone and spread by 0.23 of its median over ten
    #: seeds
    min_rounds = 2
    #: one round: grids of varied extent, n from ~4k to ~20k.  The seed
    #: draws the coefficients and the right-hand sides; it leaves the
    #: patterns alone, since a renumbered grid orders with a different
    #: fill and cost and that would swamp the spread between runs
    CLASSES = (
        ("lap", (15, 16, 17)),
        ("ela", (10, 11, 12)),
        ("lap", (21, 22, 23)),
        ("ela", (16, 17, 18)),
        ("lap", (26, 27, 28)),
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.problems = []
        for kind, extent in self.CLASSES:
            a = _grid(kind, extent, rng)
            self.problems.append((f"{kind}{a.n_rows}", a, rng.standard_normal(a.n_rows)))

    def run_round(self, index, tracer=None):
        out = []
        sim, nnz = 0.0, 0
        for i, (kind, a, b) in enumerate(self.problems):
            def op(a=a, b=b):
                s = SparseCholeskySolver(a)
                s.analyze().factorize()
                return s, s.solve_refined(b)

            result, wall, error = timed(tracer, f"r{index}.{i}", op)
            if error is not None:
                out.append(OpResult(kind, wall, "exception"))
                continue
            s, res = result
            ok = checks.is_permutation(s.symbolic.perm, a.n_rows) and checks.solution_ok(
                a, res.x, b
            )
            out.append(OpResult(kind, wall, None if ok else "check"))
            sim += s.stats.simulated_seconds
            nnz += s.stats.nnz_factor
        self.sim_s, self.nnz = sim, nnz
        return out


# ----------------------------------------------------------------------
class WarmRefactor(Workload):
    """New values on one analysed lmco_s pattern, factored under P_MH."""

    #: one set-up takes ~4 s next to ~6 s of operations; a third would
    #: lengthen every run by a fifth
    setup_repeats = 2
    POOL = 16

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        solver = SparseCholeskySolver(matrices.load_test_matrix("lmco_s"), policy="model")
        solver.analyze()
        self.solver = solver
        self.base = solver.a
        n = self.base.n_rows
        self.scale = [
            (rng.uniform(0.5, 2.0, n), float(rng.uniform(0.01, 0.1)))
            for _ in range(self.POOL)
        ]
        self.rhs = [rng.standard_normal(n) for _ in range(self.POOL)]
        # the first numeric pass builds the assembly plan every later
        # refactorization reuses
        solver.factorize()

    def run_round(self, index, tracer=None):
        values = _scaled_data(self.base, *self.scale[index % self.POOL])
        b = self.rhs[index % self.POOL]
        s = self.solver

        def op():
            s.refactorize(values)
            return s.solve_refined(b)

        res, wall, error = timed(tracer, f"r{index}", op)
        if error is not None:
            return [OpResult("refactor", wall, "exception")]
        a = SimpleNamespace(
            shape=self.base.shape, indptr=self.base.indptr,
            indices=self.base.indices, data=values,
        )
        ok = checks.is_permutation(s.symbolic.perm, a.shape[0]) and checks.solution_ok(
            a, res.x, b
        )
        self.sim_s, self.nnz = s.stats.simulated_seconds, s.stats.nnz_factor
        return [OpResult("refactor", wall, None if ok else "check")]


# ----------------------------------------------------------------------
class PaperReplay(Workload):
    """Pricing calls over the paper-scale Table II trees, no numerics."""

    #: one set-up builds five paper-scale trees (~13 s) beside ~40 s of
    #: pricing per round; a second set-up would lengthen every run of
    #: the benchmark's longest workload by a quarter
    setup_repeats = 1
    ENGINES = ("serial", "static", "dynamic", "cluster")

    def __init__(self, seed: int):
        self.trees = [
            (spec.name, workload.paper_workload(spec.name))
            for spec in workload.PAPER_WORKLOADS
        ]
        self.classifier = autotune.train_default_classifier(gpu.SimulatedNode().model)
        # the inputs are the paper's trees, so the seed changes nothing
        # here; a fixed call order also fixes where the collector's full
        # passes (one or two per call over these large trees) land
        self.calls = [
            (tree, pol, engine)
            for tree in range(len(self.trees))
            for pol in ("P_BH", "P_MH")
            for engine in self.ENGINES
        ]
        self.nnz = sum(sf.nnz_factor for _, sf in self.trees)

    def policy(self, name: str):
        if name == "P_BH":
            return policies.BaselineHybrid()
        return policies.ModelHybrid(self.classifier)

    @staticmethod
    def price(sf, pol, engine: str):
        """One pricing call: (result, workers, {sid: (start, end, width)})."""
        if engine == "serial":
            r = numeric.replay_factorize(sf, pol, node=gpu.SimulatedNode(n_cpus=1, n_gpus=1))
            return r, 1, {t.sid: (t.start, t.end, 1) for t in r.records}
        if engine == "cluster":
            r = cluster.cluster_replay(sf, pol, cluster.ClusterSpec(n_ranks=2, gpus_per_rank=1))
            return r, 2, {t.sid: (t.start, t.end, 1) for t in r.schedule}
        pool = parallel.make_worker_pool(2, 2)
        schedule = parallel.list_schedule if engine == "static" else runtime.dynamic_schedule
        r = schedule(sf, pol, pool)
        width = pool.n_workers
        return r, width, {t.sid: (t.start, t.end, width if t.gang else 1) for t in r.schedule}

    def run_round(self, index, tracer=None):
        out = []
        sim = 0.0
        for i, (tree, pol_name, engine) in enumerate(self.calls):
            name, sf = self.trees[tree]
            pol = self.policy(pol_name)
            result, wall, error = timed(
                tracer, f"r{index}.{i}", lambda: self.price(sf, pol, engine)
            )
            kind = f"{engine}:{name}:{pol_name}"
            if error is not None:
                out.append(OpResult(kind, wall, "exception"))
                continue
            r, workers, tasks = result
            ok = checks.schedule_ok(sf.sparent, tasks, workers, r.makespan)
            out.append(OpResult(kind, wall, None if ok else "check"))
            sim += r.makespan
        self.sim_s = sim
        return out


# ----------------------------------------------------------------------
def _relabel(a, rng):
    """The same operator with its unknowns numbered anew: a new pattern."""
    return a.permute_symmetric(rng.permutation(a.n_rows))


def _scaled(a, rng):
    """Same pattern, new SPD values."""
    data = _scaled_data(a, rng.uniform(0.5, 2.0, a.n_rows), rng.uniform(0.01, 0.1))
    return matrices.CSCMatrix(a.shape, a.indptr, a.indices, data, check=False)


class ServiceMix(Workload):
    """``/v1/solve`` requests through the in-process API client."""

    API_KEY = "bench-key"
    #: one set-up takes ~4 s next to ~17 s of requests; a third would
    #: lengthen every run by a sixth
    setup_repeats = 2
    #: rounds a run makes: 4, so p90 has >= 11 requests beyond it; the
    #: set-up encodes no more
    min_rounds = max_rounds = 4
    #: one round: 26 requests.  Hits and misses are those of the 24
    #: requests of the service-throughput stream in repro.bench.scenarios;
    #: the non-finite slice comes on top
    NUMERIC_HITS, SYMBOLIC_HITS, MISSES, NONFINITE = 15, 6, 3, 2
    #: three hot patterns, as in that stream; a miss is one of them with
    #: its unknowns numbered anew
    HOT = (("lap", (12, 12, 13)), ("ela", (8, 9, 10)), ("lap", (13, 13, 14)))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.service = SolverService()
        # rate limits set so that they never bind
        self.app = ApiApp(
            self.service, api_keys={self.API_KEY: "bench"}, rate=1e9, burst=10**9
        )
        self.client = InProcessClient(self.app)
        hot = [_grid(kind, extent, rng) for kind, extent in self.HOT]
        # the known fault: non-finite values, fixed inputs (no seed)
        nan = matrices.grid_laplacian_3d(6, 6, 6)
        nan.data[0] = np.nan
        inf = matrices.grid_laplacian_3d(6, 6, 7)
        inf.data[0] = np.inf
        self.encoded = {}
        self.rounds = []
        for r in range(self.max_rounds):
            reqs = [("numeric", hot[i % len(hot)]) for i in range(self.NUMERIC_HITS)]
            reqs += [
                ("symbolic", _scaled(hot[i % len(hot)], rng))
                for i in range(self.SYMBOLIC_HITS)
            ]
            reqs += [
                ("miss", _relabel(hot[i % len(hot)], rng)) for i in range(self.MISSES)
            ]
            reqs += [("nonfinite", (nan, inf)[i % 2]) for i in range(self.NONFINITE)]
            order = rng.permutation(len(reqs))
            self.rounds.append([self._request(*reqs[j], rng) for j in order])
        # warm the cache with the hot matrices (their first solve is a miss)
        for a in hot:
            rhs = json.dumps(np.ones(a.n_rows).tolist()).encode()
            resp = self.client.post("/v1/solve", body=self._body(a, rhs),
                                    api_key=self.API_KEY)
            if resp.status != 200:
                raise RuntimeError(f"warm-up request failed: {resp.body[:200]!r}")
        self.begin_measure()

    def begin_measure(self):
        self.counters0 = self._counters()
        self.body_bytes = self.sent = self.measured_rounds = 0

    def _matrix_json(self, a) -> bytes:
        key = id(a)
        if key not in self.encoded:
            self.encoded[key] = (a, json.dumps(encode_matrix(a)).encode())
        return self.encoded[key][1]

    def _body(self, a, rhs: bytes) -> bytes:
        return b'{"matrix": ' + self._matrix_json(a) + b', "rhs": ' + rhs + b"}"

    def _request(self, kind, a, rng):
        """A request ready to send: its matrix and right-hand side are
        encoded here, in set-up."""
        b = rng.standard_normal(a.n_rows)
        self._matrix_json(a)
        return kind, a, b, json.dumps(b.tolist()).encode()

    # -- running -----------------------------------------------------------
    def _send(self, tracer, op_id, req) -> tuple[OpResult, int]:
        kind, a, b, rhs = req
        body = self._body(a, rhs)
        return self._check(kind, a, b, *timed(
            tracer, op_id,
            lambda: self.client.post("/v1/solve", body=body, api_key=self.API_KEY),
        )), len(body)

    @staticmethod
    def _check(kind, a, b, resp, wall, error) -> OpResult:
        if error is not None:
            return OpResult(kind, wall, "exception")
        if kind == "nonfinite":
            # due: a typed 4xx invalid_request; the known fault is a 200
            # (with a NaN or wrong x), any other answer is a new failure
            if resp.status == 200:
                return OpResult(kind, wall, "check", known=True)
            if 400 <= resp.status < 500 and resp.json()["error"]["code"] == "invalid_request":
                return OpResult(kind, wall)
            return OpResult(kind, wall, "status")
        if resp.status != 200:
            return OpResult(kind, wall, "status")
        ok = checks.solution_ok(a, np.asarray(resp.json()["x"]), b)
        return OpResult(kind, wall, None if ok else "check")

    def run_round(self, index, tracer=None):
        reqs = self.rounds[index]
        keys0 = set(self.service.cache.keys())
        # one client, closed loop: the next request goes out when the
        # last one returns.  Two clients were tried: the GIL serialises
        # the work, so they served no more requests per second, and how
        # their hits and fills overlapped varied from run to run, which
        # spread p50 over ten seeds by 0.15-0.27 of its median
        results = []
        for i, req in enumerate(reqs):
            result, size = self._send(tracer, f"r{index}.{i}", req)
            results.append(result)
            self.body_bytes += size
        self.sent += len(reqs)
        self.measured_rounds += 1
        # every factor the round added: simulated seconds, entries of L,
        # and an ordering that must be a permutation
        sim, nnz, perms_ok = 0.0, 0, True
        for tier, key in set(self.service.cache.keys()) - keys0:
            if tier != "numeric":
                continue
            f = self.service.cache.peek_numeric(key)
            sim += f.makespan
            nnz += f.sf.nnz_factor
            perms_ok &= checks.is_permutation(f.sf.perm, f.sf.n)
        if index == 0:
            self.sim_s, self.nnz = sim, nnz
        if not perms_ok:
            results = [r if r.failure else OpResult(r.kind, r.wall, "check") for r in results]
        return results

    def _counters(self) -> dict[str, float]:
        m = self.service.metrics
        out = {}
        for name in ("requests_numeric", "requests_symbolic", "requests_miss",
                     "requests_batched", "batched_requests", "completed"):
            out[name] = m.counter(name)
        for stage in ("queue_wait", "solve", "analyze", "factorize"):
            h = m.histogram(stage)
            out[f"{stage}.count"] = h.count if h else 0
            out[f"{stage}.total"] = h.total if h else 0.0
        return out

    def layer_metrics(self):
        now, before = self._counters(), self.counters0
        d = {k: now[k] - before[k] for k in now}
        requests = max(d["completed"], 1)
        rounds = max(self.measured_rounds, 1)

        def mean(stage):
            n = d[f"{stage}.count"]
            return d[f"{stage}.total"] / n if n else 0.0

        return {
            "service.solve_s": mean("solve"),
            "service.queue_wait_s": mean("queue_wait"),
            "service.analyze_s": mean("analyze"),
            "service.factorize_s": mean("factorize"),
            "service.numeric_hits": d["requests_numeric"] / rounds,
            "service.symbolic_hits": d["requests_symbolic"] / rounds,
            "service.misses": d["requests_miss"] / rounds,
            "service.batched_requests": d["batched_requests"] / rounds,
            "service.hit_ratio": d["requests_numeric"] / requests,
            "api.body_bytes": self.body_bytes / max(self.sent, 1),
        }

    def close(self):
        self.app.close()
        self.service.shutdown()


WORKLOADS = {
    "cold-solve": ColdSolve,
    "warm-refactor": WarmRefactor,
    "service-mix": ServiceMix,
    "paper-replay": PaperReplay,
}
