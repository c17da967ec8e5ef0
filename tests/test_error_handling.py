"""Failure modes: non-SPD inputs, broken structures, informative errors."""

import numpy as np
import pytest

from repro.dense.kernels import NotPositiveDefiniteError
from repro.matrices import grid_laplacian_2d, random_spd
from repro.matrices.csc import CSCMatrix, csc_from_dense
from repro.multifrontal import SparseCholeskySolver, factorize_numeric
from repro.policies import make_policy
from repro.symbolic import symbolic_factorize


def indefinite_matrix(n=30, seed=0):
    """Symmetric, full-pattern-like, but indefinite (one negative pivot)."""
    a = random_spd(n, seed=seed)
    a = a.copy()
    # flip one diagonal entry deep into the matrix
    target = n // 2
    for p in range(a.indptr[target], a.indptr[target + 1]):
        if a.indices[p] == target:
            a.data[p] = -abs(a.data[p])
    return a


class TestNonSPD:
    def test_error_carries_location_context(self):
        a = indefinite_matrix()
        sf = symbolic_factorize(a, ordering="amd")
        with pytest.raises(NotPositiveDefiniteError, match="supernode"):
            factorize_numeric(a, sf, make_policy("P1"))

    def test_error_mentions_original_column(self):
        a = indefinite_matrix()
        sf = symbolic_factorize(a, ordering="amd")
        with pytest.raises(NotPositiveDefiniteError, match="original column"):
            factorize_numeric(a, sf, make_policy("P1"))

    @pytest.mark.parametrize("backend", ["serial", "static", "dynamic", "cluster"])
    def test_every_backend_names_the_failing_column(self, backend):
        a = indefinite_matrix()
        s = SparseCholeskySolver(a, ordering="amd", policy="P1", backend=backend)
        with pytest.raises(
            NotPositiveDefiniteError, match="supernode .* original column"
        ):
            s.factorize()

    def test_solver_propagates(self):
        a = indefinite_matrix()
        s = SparseCholeskySolver(a, ordering="amd", policy="P1")
        with pytest.raises(NotPositiveDefiniteError):
            s.factorize()

    def test_negative_semidefinite_rejected(self):
        d = -np.eye(4)
        with pytest.raises(NotPositiveDefiniteError):
            SparseCholeskySolver(csc_from_dense(d), policy="P1").factorize()


class TestStructuralErrors:
    def test_extend_add_guard(self):
        # a corrupted symbolic structure must be caught, not silently
        # corrupt the factorization
        a = grid_laplacian_2d(5, 5)
        sf = symbolic_factorize(a, ordering="amd")
        # break one supernode's row list (drop a needed row)
        victim = next(
            s for s in range(sf.n_supernodes) if sf.update_size(s) > 1
        )
        sf.rows[victim] = sf.rows[victim][:-1]
        with pytest.raises((ValueError, AssertionError)):
            factorize_numeric(a, sf, make_policy("P1"))

    def test_validate_catches_broken_rows(self):
        a = grid_laplacian_2d(5, 5)
        sf = symbolic_factorize(a, ordering="amd")
        victim = next(
            s for s in range(sf.n_supernodes) if sf.update_size(s) > 0
        )
        sf.rows[victim] = sf.rows[victim][::-1].copy()  # unsorted
        with pytest.raises(AssertionError):
            sf.validate()

    def test_entries_outside_pattern_detected(self):
        # factor a matrix with an entry the symbolic pattern cannot hold:
        # couple the first and last grid points directly (column 0's
        # fundamental front only reaches its grid neighbors)
        from repro.symbolic import AmalgamationParams

        a = grid_laplacian_2d(8, 8)
        sf = symbolic_factorize(
            a, ordering="natural",
            amalgamation=AmalgamationParams(max_width=0),
        )
        d = a.to_dense()
        n = a.n_rows
        d[0, n - 1] = d[n - 1, 0] = -0.5
        d[0, 0] += 1.0
        d[n - 1, n - 1] += 1.0
        denser = csc_from_dense(d)
        with pytest.raises(ValueError):
            factorize_numeric(denser, sf, make_policy("P1"))


class TestZeroAndTiny:
    def test_1x1_matrix(self):
        a = csc_from_dense(np.array([[4.0]]))
        s = SparseCholeskySolver(a, policy="P1")
        x = s.solve(np.array([8.0]))
        assert x[0] == pytest.approx(2.0)
        assert s.log_determinant() == pytest.approx(np.log(4.0))

    def test_diagonal_matrix(self):
        a = csc_from_dense(np.diag([1.0, 4.0, 9.0]))
        s = SparseCholeskySolver(a, policy="P1")
        x = s.solve(np.ones(3))
        assert np.allclose(x, [1.0, 0.25, 1.0 / 9.0])

    def test_gpu_policy_on_diagonal_matrix(self):
        a = csc_from_dense(np.diag([1.0, 4.0, 9.0]))
        s = SparseCholeskySolver(a, policy="P3")
        x = s.solve(np.ones(3))
        assert np.allclose(x, [1.0, 0.25, 1.0 / 9.0], atol=1e-6)
