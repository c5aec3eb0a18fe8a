import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpmaps.algebra import Algebra, MatrixOverAlgebra, amplified_algebra, multiply, random_element
from icpmaps.errors import AlgebraMismatchError, ArityError
from icpmaps.factory import (
    commutative_invariant_family,
    point_evaluation_example,
    trace_example,
    worked_level2_tuple,
)
from icpmaps.multimap import MultilinearMap, amplified_evaluate


def test_trace_example_unit_value():
    phi = trace_example(2)
    assert np.allclose(phi.unit_value(), np.eye(2), atol=1e-15)


def test_point_evaluation_values():
    phi = point_evaluation_example(2)
    alg = phi.algebra
    a = alg.element_from_coords([1, 1])
    b = alg.element_from_coords([1, 0])
    assert phi.evaluate([a, b, b])[0, 0] == 1.0


def test_zero_argument_kills_value(rng):
    phi = trace_example(2)
    x = random_element(phi.algebra, rng)
    zero = phi.algebra.zero()
    assert np.abs(phi.evaluate([x, zero, x])).max() == 0.0


def test_basis_tuples_return_stored_coefficients():
    phi = point_evaluation_example(2)
    alg = phi.algebra
    for p in range(2):
        for q in range(2):
            for r in range(2):
                val = phi.evaluate([alg.basis_element(p), alg.basis_element(q), alg.basis_element(r)])
                assert np.array_equal(val, phi.coeffs[p, q, r])


def slot_linearity_deviation(phi, rng, trials=20):
    """Largest relative violation of linearity in a random slot."""
    worst = 0.0
    for _ in range(trials):
        slot = int(rng.integers(phi.k))
        args = [random_element(phi.algebra, rng) for _ in range(phi.k)]
        x = random_element(phi.algebra, rng)
        y = random_element(phi.algebra, rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        lhs = phi.evaluate(args[:slot] + [alpha * x + beta * y] + args[slot + 1 :])
        rhs = alpha * phi.evaluate(args[:slot] + [x] + args[slot + 1 :]) + beta * phi.evaluate(
            args[:slot] + [y] + args[slot + 1 :]
        )
        scale = 1.0 + max(np.abs(lhs).max(), np.abs(rhs).max())
        worst = max(worst, float(np.abs(lhs - rhs).max() / scale))
    return worst


def test_slot_linearity(rng):
    for phi in (trace_example(2), point_evaluation_example(3)):
        assert slot_linearity_deviation(phi, rng, trials=30) <= 1e-11


def test_arity_and_algebra_errors():
    phi = trace_example(2)
    with pytest.raises(ArityError):
        phi.evaluate([phi.algebra.one()] * 2)
    with pytest.raises(AlgebraMismatchError):
        phi.evaluate([Algebra([1, 1]).one()] * 3)


def test_amplify_level_one_is_identity():
    phi = point_evaluation_example(2)
    assert np.array_equal(phi.amplify(1).coeffs, phi.coeffs)


def test_worked_level2_entry_is_exactly_minus_one():
    phi = point_evaluation_example(2)
    mats = worked_level2_tuple()
    value = amplified_evaluate(phi, 2, mats)
    assert value[0, 0] == -1.0
    amp = amplified_algebra(phi.algebra, 2)
    big = phi.amplify(2)
    value2 = big.evaluate([amp.embed(x) for x in mats])
    assert np.array_equal(value, value2)


def test_trace_amplified_at_units():
    phi = trace_example(2)
    mats = [MatrixOverAlgebra.identity(phi.algebra, 2)] * 3
    assert np.allclose(amplified_evaluate(phi, 2, mats), np.eye(4), atol=1e-14)


def _regroup(x: MatrixOverAlgebra, s: int, t: int) -> MatrixOverAlgebra:
    """View an st-by-st matrix over A as a t-by-t matrix over M_s(A)."""
    amp_s = amplified_algebra(x.algebra, s)
    coords = np.zeros((t, t, amp_s.algebra.dim), dtype=complex)
    for i in range(t):
        for j in range(t):
            sub = MatrixOverAlgebra(x.algebra, x.coords[i * s : (i + 1) * s, j * s : (j + 1) * s])
            coords[i, j] = amp_s.embed(sub).coords()
    return MatrixOverAlgebra(amp_s.algebra, coords)


def test_amplification_composes(rng):
    phi = point_evaluation_example(2)
    s, t = 2, 2
    inner = phi.amplify(s)
    for _ in range(10):
        mats = [
            MatrixOverAlgebra(
                phi.algebra,
                rng.standard_normal((s * t, s * t, 2)) + 1j * rng.standard_normal((s * t, s * t, 2)),
            )
            for _ in range(3)
        ]
        flat = amplified_evaluate(phi, s * t, mats)
        nested = amplified_evaluate(inner, t, [_regroup(x, s, t) for x in mats])
        assert np.abs(flat - nested).max() <= 1e-10 * (1 + np.abs(flat).max())


def test_adjoint_against_direct_oracle(rng):
    """phi*(e_i1..e_ik) = phi(e_ik*, .., e_i1*)^dagger, computed independently."""
    for phi in (trace_example(2), point_evaluation_example(2)):
        adj = phi.adjoint()
        alg = phi.algebra
        for idx in np.ndindex(*(alg.dim,) * phi.k):
            args = [alg.basis_element(p).star() for p in reversed(idx)]
            expected = phi.evaluate(args).conj().T
            assert np.abs(adj.coeffs[idx] - expected).max() <= 1e-14


def test_trace_example_self_adjoint():
    phi = trace_example(2)
    assert np.array_equal(phi.adjoint().coeffs, phi.coeffs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adjoint_is_involutive(seed):
    rng = np.random.default_rng(seed)
    alg = Algebra([2])
    coeffs = rng.standard_normal((4, 4, 2, 2)) + 1j * rng.standard_normal((4, 4, 2, 2))
    phi = MultilinearMap(alg, 2, 2, coeffs)
    assert np.array_equal(phi.adjoint().adjoint().coeffs, phi.coeffs)


def test_adjoint_conjugate_linear(rng):
    alg = Algebra([1, 1])
    coeffs = rng.standard_normal((2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 1, 1))
    phi = MultilinearMap(alg, 2, 1, coeffs)
    alpha = 0.7 - 1.3j
    scaled = MultilinearMap(alg, 2, 1, alpha * coeffs)
    assert np.allclose(scaled.adjoint().coeffs, np.conj(alpha) * phi.adjoint().coeffs, atol=1e-14)


def test_transpose_map_on_m2_is_symmetric():
    alg = Algebra([2])
    coeffs = np.zeros((4, 2, 2), dtype=complex)
    for p in range(4):
        _, r, c = alg.basis_label(p)
        coeffs[p][c, r] = 1.0
    phi = MultilinearMap(alg, 1, 2, coeffs)
    assert phi.is_symmetric(tol=0)


def test_is_symmetric_examples():
    assert trace_example(2).is_symmetric(tol=1e-12)
    assert point_evaluation_example(2).is_symmetric(tol=0)
    perturbed = point_evaluation_example(2).coeffs.copy()
    perturbed[0, 0, 1] += 1e-3j
    phi = MultilinearMap(Algebra([1, 1]), 3, 1, perturbed)
    assert not phi.is_symmetric(tol=1e-6)


def test_is_invariant_examples():
    assert trace_example(2).is_invariant()
    assert point_evaluation_example(2).is_invariant()
    bad = np.zeros((2, 2, 2, 1, 1), dtype=complex)
    bad[0, 0, 1] = 1.0  # a_1 b_1 c_2 is not invariant
    assert not MultilinearMap(Algebra([1, 1]), 3, 1, bad).is_invariant()


def _invariance_deviation_oracle(phi, trials, rng):
    """Both sides of the migration identity by explicit loops over basis
    tuples; independent of the einsum path."""
    alg, k, m = phi.algebra, phi.k, phi.m
    n_c = m - 1 if k % 2 == 1 else m
    worst = 0.0
    d = alg.dim
    for _ in range(trials):
        a_idx = rng.integers(d, size=k)
        c_idx = rng.integers(d, size=n_c)
        a_el = [alg.basis_element(p) for p in a_idx]
        c_el = [alg.basis_element(p) for p in c_idx]
        lhs_args = [multiply(a_el[j], c_el[j]) for j in range(n_c)] + a_el[n_c:]
        rhs_args = a_el[: k - n_c] + [
            multiply(c_el[k - 1 - s], a_el[s]) for s in range(k - n_c, k)
        ]
        dev = np.abs(phi.evaluate(lhs_args) - phi.evaluate(rhs_args)).max()
        worst = max(worst, float(dev))
    return worst


@pytest.mark.parametrize("k", [2, 3, 4])
def test_invariance_exhaustive_matches_loop_oracle(k, rng):
    alg = Algebra([1, 1])
    shape = (2,) * k + (1, 1)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    phi = MultilinearMap(alg, k, 1, coeffs)
    report = phi.invariance_report()
    assert report["exhaustive"]
    oracle = _invariance_deviation_oracle(phi, 400, rng)
    # oracle samples basis tuples, so it can only reach up to the exhaustive max
    assert oracle <= report["max_deviation"] + 1e-12
    assert (oracle > 1e-9) == (not report["invariant"])


def test_arity_one_is_vacuously_invariant(rng):
    alg = Algebra([2])
    coeffs = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    phi = MultilinearMap(alg, 1, 2, coeffs)
    report = phi.invariance_report()
    assert report["invariant"] and report["max_deviation"] == 0.0


def test_unit_value_examples():
    assert point_evaluation_example(2).unit_value()[0, 0] == 1.0
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    assert zero.unit_value()[0, 0] == 0.0


def test_gamma_family_is_invariant_and_symmetric(rng):
    gamma = rng.uniform(0.1, 1.0, size=(2, 2))
    phi = commutative_invariant_family(gamma)
    assert phi.is_invariant()
    assert phi.is_symmetric()
