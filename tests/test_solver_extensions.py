"""Extended solver capabilities: multi-RHS, value updates, logdet,
device-memory fallback, classifier persistence."""

import numpy as np
import pytest

from repro import SparseCholeskySolver, grid_laplacian_2d, random_spd
from repro.matrices import grid_laplacian_3d
from repro.autotune import (
    PolicyClassifier,
    collect_timing_dataset,
    sample_mk_cloud,
    train_cost_sensitive,
)
from repro.gpu import SimulatedNode, tesla_t10_model
from repro.gpu.spec import GpuSpec, TESLA_T10
from repro.multifrontal import factorize_numeric, solve_factored
from repro.multifrontal.numeric import replay_factorize
from repro.policies import BaselineHybrid, make_policy
from repro.symbolic import symbolic_factorize
from dataclasses import replace


class TestMultiRHS:
    def test_block_solve_matches_columnwise(self, lap2d_small, rng):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        b = rng.normal(size=(lap2d_small.n_rows, 4))
        x_block = solve_factored(nf, b)
        for j in range(4):
            xj = solve_factored(nf, b[:, j])
            assert np.allclose(x_block[:, j], xj)

    def test_block_solve_accuracy(self, lap2d_small, rng):
        s = SparseCholeskySolver(lap2d_small, policy="P1").factorize()
        x_true = rng.normal(size=(lap2d_small.n_rows, 3))
        b = np.stack(
            [lap2d_small.matvec(x_true[:, j]) for j in range(3)], axis=1
        )
        x = solve_factored(s.factor, b)
        assert np.abs(x - x_true).max() < 1e-9

    def test_bad_shapes_rejected(self, lap2d_small):
        s = SparseCholeskySolver(lap2d_small, policy="P1").factorize()
        with pytest.raises(ValueError):
            solve_factored(s.factor, np.ones((3, 2)))
        with pytest.raises(ValueError):
            solve_factored(s.factor, np.ones((lap2d_small.n_rows, 2, 2)))


class TestUpdateValues:
    def test_refactor_same_pattern(self, rng):
        a = random_spd(60, seed=1)
        s = SparseCholeskySolver(a, ordering="amd", policy="P1").factorize()
        n_super_before = s.stats.n_supernodes
        # scale values (same pattern), refactor, solve
        a2 = a.copy()
        a2.data *= 2.0
        s.update_values(a2)
        assert s.stats.n_supernodes == n_super_before
        x = s.solve(np.ones(60))
        assert np.abs(a2.matvec(x) - 1).max() < 1e-9

    def test_rejects_different_pattern(self):
        a = random_spd(60, seed=1)
        b = random_spd(60, seed=2)
        s = SparseCholeskySolver(a, policy="P1").factorize()
        with pytest.raises(ValueError):
            s.update_values(b)

    def test_update_before_analyze_is_lazy(self):
        a = random_spd(30, seed=4)
        s = SparseCholeskySolver(a, policy="P1")
        a2 = a.copy()
        a2.data *= 1.5
        s.update_values(a2)       # no symbolic yet: just swap
        assert s.factor is None
        x = s.solve(np.ones(30))
        assert np.abs(a2.matvec(x) - 1).max() < 1e-9


class TestLogDet:
    def test_matches_dense(self, rng):
        a = random_spd(40, seed=9)
        s = SparseCholeskySolver(a, policy="P1").factorize()
        sign, ref = np.linalg.slogdet(a.to_dense())
        assert sign == 1.0
        assert s.log_determinant() == pytest.approx(ref, rel=1e-10)

    def test_scaling_property(self):
        a = random_spd(25, seed=3)
        s1 = SparseCholeskySolver(a, policy="P1").factorize()
        a2 = a.copy()
        a2.data *= 4.0
        s2 = SparseCholeskySolver(a2, policy="P1").factorize()
        # det(cA) = c^n det(A)
        assert s2.log_determinant() - s1.log_determinant() == pytest.approx(
            25 * np.log(4.0), rel=1e-10
        )


def tiny_memory_node(memory_bytes=2048):
    """A node whose GPU has almost no memory: every offload must fail."""
    model = tesla_t10_model()
    node = SimulatedNode(model=model, n_cpus=1, n_gpus=1)
    small_spec = replace(TESLA_T10, memory_bytes=memory_bytes)
    from repro.gpu.device import SimulatedGpu

    node.gpus[0] = SimulatedGpu(model, 0, spec=small_spec)
    return node


class TestDeviceMemoryFallback:
    @staticmethod
    def _needs_fallback(r, limit=2048, word=4):
        return (r.k * r.k + r.m * r.k + r.m * r.m) * word > limit

    def test_numeric_falls_back_to_host(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        node = tiny_memory_node()
        nf = factorize_numeric(lap2d_small, sf, make_policy("P3"), node=node)
        # calls whose working set exceeds the 2 KiB device fell back
        big = [r for r in nf.records if self._needs_fallback(r)]
        assert big, "test problem must contain oversized fronts"
        assert all(r.policy == "P1" for r in big)
        # the small ones still offloaded
        assert any(r.policy == "P3" for r in nf.records if r.m > 0)

    def test_replay_falls_back_identically(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        node = tiny_memory_node()
        rp = replay_factorize(sf, make_policy("P3"), node=node)
        big = [r for r in rp.records if self._needs_fallback(r)]
        assert big and all(r.policy == "P1" for r in big)

    def test_numerics_follow_the_priced_fallback(self, lap2d_small):
        # 8 bytes hold no front with an update block: every such call is
        # priced on the host, so its numerics must run there too (float64
        # P1, not float32 P3)
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        p3 = factorize_numeric(
            lap2d_small, sf, make_policy("P3"), node=tiny_memory_node(8)
        )
        p1 = factorize_numeric(lap2d_small, sf, make_policy("P1"))
        assert all(r.policy == "P1" for r in p3.records if r.m > 0)
        assert len(p3.panels) == len(p1.panels)
        for x, y in zip(p3.panels, p1.panels):
            assert np.array_equal(x, y)

    def test_fits_when_memory_sufficient(self, lap2d_small):
        sf = symbolic_factorize(lap2d_small, ordering="amd")
        nf = factorize_numeric(lap2d_small, sf, make_policy("P3"))
        assert any(r.policy == "P3" for r in nf.records)


class TestPriceThenCompute:
    @pytest.mark.parametrize("policy", ["P1", "P2", "P3", "P4", "basic", "PBH"])
    def test_replay_records_equal_numeric_records(self, policy):
        a = grid_laplacian_3d(14, 14, 14)
        sf = symbolic_factorize(a, ordering="nd")
        pol = BaselineHybrid() if policy == "PBH" else make_policy(policy)
        nf = factorize_numeric(a, sf, pol)
        rp = replay_factorize(sf, pol)
        if policy == "PBH":
            assert len({r.policy for r in nf.records}) > 1
        assert len(rp.records) == len(nf.records)
        for r_replay, r_numeric in zip(rp.records, nf.records):
            assert r_replay == r_numeric
        assert rp.makespan == nf.makespan
        assert rp.assembly_seconds == nf.assembly_seconds

    def test_peak_update_bytes_equal_across_backends(self):
        a = grid_laplacian_2d(20, 20)
        peaks = {
            backend: SparseCholeskySolver(a, policy="P1", backend=backend)
            .factorize().stats.peak_update_bytes
            for backend in ("serial", "static", "dynamic", "cluster")
        }
        assert peaks["serial"] > 0
        assert len(set(peaks.values())) == 1, peaks


class TestClassifierPersistence:
    @pytest.fixture(scope="class")
    def clf(self, model):
        m, k = sample_mk_cloud(120, seed=8)
        ds = collect_timing_dataset(m, k, model, seed=8)
        return train_cost_sensitive(ds, max_iter=200)

    def test_round_trip_dict(self, clf):
        restored = PolicyClassifier.from_dict(clf.to_dict())
        m, k = sample_mk_cloud(200, seed=80)
        assert np.array_equal(restored.predict(m, k), clf.predict(m, k))

    def test_round_trip_file(self, clf, tmp_path):
        path = tmp_path / "clf.json"
        clf.save(path)
        restored = PolicyClassifier.load(path)
        assert np.allclose(restored.theta, clf.theta)
        assert restored.class_names == clf.class_names

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            PolicyClassifier.from_dict({"format": "v0"})

    def test_json_is_plain_data(self, clf):
        import json

        text = json.dumps(clf.to_dict())
        assert "theta" in text


class TestScheduleAndBackend:
    """The solver's execution knobs: schedule="liu", backend=..."""

    def test_liu_schedule_same_factor_lower_peak(self):
        from repro.matrices import grid_laplacian_3d
        from repro.symbolic.stack import (
            estimate_peak_update_bytes,
            stack_minimizing_postorder,
        )

        for a in (grid_laplacian_2d(14, 11), grid_laplacian_3d(6, 5, 4),
                  random_spd(140, seed=4)):
            post = SparseCholeskySolver(a, ordering="nd").factorize()
            liu = SparseCholeskySolver(a, ordering="nd",
                                       schedule="liu").factorize()
            sf = post.symbolic
            liu_order = stack_minimizing_postorder(sf)
            assert estimate_peak_update_bytes(sf, liu_order) <= \
                estimate_peak_update_bytes(sf)
            # realized peaks agree with the estimates' ordering ...
            assert liu.factor.peak_update_bytes <= post.factor.peak_update_bytes
            # ... and the factor itself is schedule-independent
            for pp, pl in zip(post.factor.panels, liu.factor.panels):
                assert np.array_equal(pp, pl)

    def test_liu_solver_solves(self, lap2d_small):
        solver = SparseCholeskySolver(lap2d_small, ordering="amd",
                                      schedule="liu")
        b = np.ones(lap2d_small.n_rows)
        x = solver.solve(b)
        assert np.abs(lap2d_small.matvec(x) - b).max() < 1e-10

    def test_backends_produce_identical_solutions(self, lap2d_small):
        b = np.ones(lap2d_small.n_rows)
        xs = {}
        for backend in ("serial", "static", "dynamic"):
            node = SimulatedNode(n_cpus=2, n_gpus=1)
            solver = SparseCholeskySolver(
                lap2d_small, ordering="nd", policy="baseline",
                node=node, backend=backend,
            )
            xs[backend] = solver.solve(b, refine=False)
        assert np.array_equal(xs["serial"], xs["static"])
        assert np.array_equal(xs["static"], xs["dynamic"])

    def test_dynamic_backend_exposes_runtime(self, lap2d_small):
        node = SimulatedNode(n_cpus=4, n_gpus=0)
        solver = SparseCholeskySolver(lap2d_small, ordering="nd",
                                      node=node, backend="dynamic")
        solver.factorize()
        assert solver.parallel is not None
        assert solver.parallel.runtime.stats.steals >= 1
        assert not solver.parallel.degraded

    def test_invalid_combinations_rejected(self, lap2d_small):
        with pytest.raises(ValueError, match="schedule"):
            SparseCholeskySolver(lap2d_small, schedule="bogus")
        with pytest.raises(ValueError, match="backend"):
            SparseCholeskySolver(lap2d_small, backend="bogus")
        with pytest.raises(ValueError, match="serial"):
            SparseCholeskySolver(lap2d_small, schedule="liu", backend="static")
        with pytest.raises(ValueError, match="dynamic"):
            SparseCholeskySolver(lap2d_small, memory_budget=1 << 20)
