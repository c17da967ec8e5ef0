"""Which public calls are traced, and how spans become per-layer metrics.

Every entry of :data:`WRAPS` names a public function or method at the
module (or class) its callers look it up in, the span name recorded
around it, and an optional hook that copies counts from the call's
return value into the span.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

from collections import defaultdict

import repro.api.app
import repro.api.protocol
import repro.autotune
import repro.cluster
import repro.multifrontal.numeric
import repro.multifrontal.refine
import repro.multifrontal.solver
import repro.parallel
import repro.policies
import repro.runtime
import repro.service.service
import repro.symbolic.symbolic

POLICY_NAMES = ("P1", "P2", "P3", "P4")
PRICE_ENGINES = ("serial", "static", "dynamic", "cluster")


def _policy_counts(names, attrs) -> None:
    for name in names:
        # variants (P3basic, P4c) count under their base policy
        key = name[:2]
        attrs[key] = attrs.get(key, 0) + 1


def _node_attrs(node, attrs) -> None:
    """Simulated engine busy time and device high-water of one node."""
    busy = defaultdict(float)
    for name, timeline in node.engines.items():
        if name.startswith("cpu"):
            busy["cpu"] += timeline.busy
        elif name.endswith(".compute"):
            busy["gpu"] += timeline.busy
        else:
            busy["copy"] += timeline.busy
    attrs.update(cpu_busy=busy["cpu"], gpu_busy=busy["gpu"], copy_busy=busy["copy"])
    attrs["device_hw"] = max((g.device_pool.capacity for g in node.gpus), default=0)


def _numeric(result, attrs) -> None:
    attrs["flops"] = sum(r.total_flops for r in result.records)
    attrs["makespan"] = result.makespan
    _policy_counts((r.policy for r in result.records), attrs)
    _node_attrs(result.node, attrs)


def _serial(result, attrs) -> None:
    attrs["tasks"] = len(result.records)
    attrs["makespan"] = result.makespan
    _policy_counts((r.policy for r in result.records), attrs)
    _node_attrs(result.node, attrs)


def _scheduled(result, attrs) -> None:
    attrs["tasks"] = len(result.schedule)
    attrs["makespan"] = result.makespan
    _policy_counts((t.policy for t in result.schedule), attrs)


def _dynamic(result, attrs) -> None:
    _scheduled(result, attrs)
    attrs["device_hw"] = result.stats.device_high_water


def _cluster(result, attrs) -> None:
    _scheduled(result, attrs)
    attrs["message_bytes"] = result.comm_bytes


def _symbolic(result, attrs) -> None:
    attrs["supernodes"] = result.n_supernodes


def _refine(result, attrs) -> None:
    attrs["iterations"] = result.iterations


sym = repro.symbolic.symbolic
solver = repro.multifrontal.solver
service = repro.service.service

WRAPS = [
    (sym, "compute_ordering", "ordering", None),
    (solver, "symbolic_factorize", "symbolic", _symbolic),
    (sym, "elimination_tree", "symbolic.etree", None),
    (sym, "column_patterns", "symbolic.colpatterns", None),
    (sym, "fundamental_supernodes", "symbolic.supernodes", None),
    (sym, "amalgamate", "symbolic.supernodes", None),
    (solver, "factorize_numeric", "numeric", _numeric),
    *[(getattr(repro.policies, f"PolicyP{i}"), "apply", "dense", None) for i in range(1, 5)],
    (repro.multifrontal.numeric, "batched_factor_update", "dense", None),
    (solver, "solve_factored", "solve", None),
    (repro.multifrontal.refine, "solve_factored", "solve", None),
    (service, "solve_factored", "solve", None),
    (solver, "iterative_refinement", "refine", _refine),
    (service, "iterative_refinement", "refine", _refine),
    (repro.autotune, "train_default_classifier", "autotune.train", None),
    (repro.multifrontal.numeric, "replay_factorize", "price.serial", _serial),
    (repro.parallel, "list_schedule", "price.static", _scheduled),
    (repro.runtime, "dynamic_schedule", "price.dynamic", _dynamic),
    (repro.cluster, "cluster_replay", "price.cluster", _cluster),
    (service, "matrix_key", "service.keys", None),
    (repro.api.protocol.Request, "json", "api.decode", None),
    (repro.api.app, "parse_solve_payload", "api.decode", None),
    (repro.api.app, "json_response", "api.encode", None),
    (repro.api.app, "error_response", "api.encode", None),
]


def install(tracer) -> None:
    for owner, attr, name, hook in WRAPS:
        tracer.wrap(owner, attr, name, hook)


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of the traced operations.

    Times are seconds per operation (totals over the operations divided
    by their number), so the self times of the layers and ``other_s``
    add up to ``op.wall_s``.  Pricing times are seconds per call of that
    engine, and ``autotune.train_s`` is seconds per set-up.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    is_setup = {s[5] for s in spans if s[1] == "op" and s[5].startswith("setup")}
    roots = [s for s in spans if s[1] == "op" and s[5] not in is_setup]
    n_ops = max(len(roots), 1)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    train = [s[3] - s[2] for s in spans if s[1] == "autotune.train"]
    for s in spans:
        if s[5] in is_setup:
            continue
        name = s[1]
        total[name] += s[3] - s[2]
        own[name] += self_t[s[0]]
        calls[name] += 1
        for key, value in s[6].items():
            attr_sum[(name, key)] += value
            attr_max[key] = max(attr_max[key], value)

    def per_op(x):
        return x / n_ops

    def per_call(name, x):
        return x / calls[name] if calls[name] else 0.0

    def sim_attr(key):
        # the simulated nodes of numeric factorizations and serial pricing
        return attr_sum[("numeric", key)] + attr_sum[("price.serial", key)]

    flops = attr_sum[("numeric", "flops")]
    out = {
        "op.wall_s": per_op(total["op"]),
        "other_s": per_op(own["op"]),
        "trace.attributed_share": 1.0 - own["op"] / total["op"] if total["op"] else 0.0,
        "ordering.call_s": per_op(total["ordering"]),
        "symbolic.self_s": per_op(own["symbolic"]),
        "symbolic.etree_s": per_op(total["symbolic.etree"]),
        "symbolic.etree_calls": per_call("symbolic", calls["symbolic.etree"]),
        "symbolic.colpatterns_s": per_op(total["symbolic.colpatterns"]),
        "symbolic.supernodes_s": per_op(total["symbolic.supernodes"]),
        "symbolic.supernodes": per_call("symbolic", attr_sum[("symbolic", "supernodes")]),
        "numeric.call_s": per_op(total["numeric"]),
        "numeric.kernel_s": per_op(total["dense"]),
        "numeric.assembly_s": per_op(own["numeric"]),
        "numeric.kernel_calls": per_op(calls["dense"]),
        "numeric.flops": per_op(flops),
        "numeric.wall_gflops": flops / total["numeric"] / 1e9 if total["numeric"] else 0.0,
        "solve.call_s": per_op(total["solve"]),
        "refine.call_s": per_op(total["refine"]),
        "refine.iterations": per_call("refine", attr_sum[("refine", "iterations")]),
        "autotune.train_s": sum(train) / len(train) if train else 0.0,
        "sim.cpu_busy_s": per_op(sim_attr("cpu_busy")),
        "sim.gpu_busy_s": per_op(sim_attr("gpu_busy")),
        "sim.copy_busy_s": per_op(sim_attr("copy_busy")),
        "sim.device_high_water_mb": attr_max["device_hw"] / 2**20,
        "price.tasks": sum(attr_sum[(f"price.{e}", "tasks")] for e in PRICE_ENGINES)
        / max(sum(calls[f"price.{e}"] for e in PRICE_ENGINES), 1),
        "cluster.message_bytes": per_call(
            "price.cluster", attr_sum[("price.cluster", "message_bytes")]
        ),
        "service.keys_s": per_op(total["service.keys"]),
        "api.decode_s": per_op(total["api.decode"]),
        "api.encode_s": per_op(total["api.encode"]),
    }
    priced = ["numeric"] + [f"price.{e}" for e in PRICE_ENGINES]
    for p in POLICY_NAMES:
        out[f"policy.calls.{p}"] = per_op(sum(attr_sum[(n, p)] for n in priced))
    for e in PRICE_ENGINES:
        out[f"price.{e}_s"] = per_call(f"price.{e}", total[f"price.{e}"])
    serial = attr_sum[("price.serial", "makespan")]
    static = attr_sum[("price.static", "makespan")]
    out["parallel.serial_makespan_s"] = per_call("price.serial", serial)
    out["parallel.static_makespan_s"] = per_call("price.static", static)
    out["parallel.sim_speedup"] = serial / static if static else 0.0
    return out
