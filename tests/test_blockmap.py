import numpy as np
import pytest

from icpmaps.algebra import Algebra, MatrixOverAlgebra, random_element
from icpmaps.blockmap import BlockMultilinearMap, as_block_map
from icpmaps.errors import AlgebraMismatchError
from icpmaps.factory import (
    noninvariant_block_example,
    noninvariant_block_instance,
    point_evaluation_example,
    random_icp,
    schur_block_map,
    trace_example,
)
from icpmaps.multimap import MultilinearMap, amplified_evaluate
from icpmaps.serialize import load_map_spec


def random_matrix_over(alg, t, rng):
    coords = rng.standard_normal((t, t, alg.dim)) + 1j * rng.standard_normal((t, t, alg.dim))
    return MatrixOverAlgebra(alg, coords)


def test_schur_case_acts_entrywise(rng):
    lam = np.array([[1.0, 0.5], [0.5, 1.0]])
    block = schur_block_map(lam)
    x = random_matrix_over(block.algebra, 2, rng)
    value = block.block_evaluate([x])
    expected = lam * x.coords[:, :, 0]
    assert np.allclose(value, expected, atol=1e-14)


def test_zero_argument_gives_zero():
    block = noninvariant_block_example()
    zero = MatrixOverAlgebra(block.algebra, np.zeros((2, 2, block.algebra.dim)))
    ident = MatrixOverAlgebra.identity(block.algebra, 2)
    assert np.abs(block.block_evaluate([ident, zero, ident])).max() == 0.0


def test_block_evaluate_matches_double_loop_oracle(rng):
    """Independent summation: loops over output entries and chain indices."""
    alg = Algebra([1, 1])
    n, k, h = 2, 2, 1
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = rng.integers(-3, 4, size=(2, 2, 1, 1)).astype(complex)
            row.append(MultilinearMap(alg, k, h, coeffs))
        entries.append(row)
    block = BlockMultilinearMap(entries)
    mats = [
        MatrixOverAlgebra(alg, rng.integers(-2, 3, size=(n, n, 2)).astype(complex))
        for _ in range(k)
    ]
    value = block.block_evaluate(mats)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for r1 in range(n):
                acc += entries[i][j].evaluate([mats[0].entry(i, r1), mats[1].entry(r1, j)])[0, 0]
            assert value[i, j] == acc


def test_block_evaluate_n1_coincides_exactly(rng):
    phi = trace_example(2)
    block = as_block_map(phi)
    args = [random_element(phi.algebra, rng) for _ in range(3)]
    mats = [MatrixOverAlgebra.from_entries(phi.algebra, [[a]]) for a in args]
    assert np.array_equal(block.block_evaluate(mats), phi.evaluate(args))


def test_block_amplify_level_one(rng):
    block = schur_block_map(np.array([[1.0, 0.5], [0.5, 1.0]]))
    induced = block.induced_map()
    amplified = induced.amplify(1)
    assert np.array_equal(amplified.coeffs, induced.coeffs)


def test_block_amplify_matches_streaming_evaluator(rng):
    alg = Algebra([1, 1])
    entries = []
    for i in range(2):
        row = []
        for j in range(2):
            coeffs = rng.standard_normal((2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 1, 1))
            row.append(MultilinearMap(alg, 2, 1, coeffs))
        entries.append(row)
    block = BlockMultilinearMap(entries)
    big = block.induced_map().amplify(2)
    amp = block.amplification
    from icpmaps.algebra import amplified_algebra

    outer = amplified_algebra(amp.algebra, 2)
    for _ in range(5):
        mats = [random_matrix_over(amp.algebra, 2, rng) for _ in range(2)]
        streamed = amplified_evaluate(block, 2, mats)
        materialized = big.evaluate([outer.embed(x) for x in mats])
        assert np.abs(streamed - materialized).max() <= 1e-12 * (1 + np.abs(streamed).max())


def test_block_amplify_zero_map(rng):
    alg = Algebra([1, 1])
    zero = MultilinearMap(alg, 2, 1, np.zeros((2, 2, 1, 1)))
    block = BlockMultilinearMap.constant_grid(zero, 2)
    mn = block.amplification
    mats = [random_matrix_over(mn.algebra, 2, rng) for _ in range(2)]
    assert np.abs(amplified_evaluate(block, 2, mats)).max() == 0.0


def test_schur_amplification_is_replicated_pattern(rng):
    lam = np.array([[1.0, 0.5], [0.5, 1.0]])
    block = schur_block_map(lam)
    mn = block.amplification  # M_n(C) over the scalars
    t = 2
    x = random_matrix_over(mn.algebra, t, rng)
    value = amplified_evaluate(block, t, [x])
    big = np.zeros((4, 4), dtype=complex)
    for i in range(t):
        for j in range(t):
            entry = mn.extract(mn.algebra.element_from_coords(x.coords[i, j]))
            big[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2] = lam * entry.coords[:, :, 0]
    # oracle: Schur product against the lam-pattern replicated over t blocks
    pattern = np.kron(np.ones((t, t)), lam)
    flat = np.zeros((4, 4), dtype=complex)
    for i in range(t):
        for j in range(t):
            entry = mn.extract(mn.algebra.element_from_coords(x.coords[i, j]))
            flat[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2] = entry.coords[:, :, 0]
    assert np.allclose(value, pattern * flat, atol=1e-14)
    assert np.allclose(value, big, atol=1e-14)


def test_dilation_generated_block_invariance_where_it_holds(corpus):
    checked = 0
    for entry in corpus:
        if entry.n == 1 or entry.k <= 2:
            report = entry.block_map.block_invariance_report()
            assert report["invariant"], (entry.name, report)
            checked += 1
            if checked >= 12:
                break
    assert checked >= 8


def test_noninvariant_grid_fails_block_invariance():
    block = noninvariant_block_example()
    assert not block.block_is_invariant()
    assert all(all(row) for row in block.entries_invariant())


def test_block_invariance_n1_reduces_to_plain():
    phi = point_evaluation_example(2)
    assert as_block_map(phi).block_is_invariant() == phi.is_invariant()


def test_entries_invariant_flags_perturbed_entry(rng):
    block = noninvariant_block_example()
    bad = block.entries[0][1].coeffs.copy()
    bad[0, 0, 1] += 0.5  # breaks the migration identity in that entry
    entries = [list(row) for row in block.entries]
    entries[0][1] = MultilinearMap(block.algebra, 3, 2, bad)
    tampered = BlockMultilinearMap(entries)
    flags = tampered.entries_invariant()
    assert flags[0][1] is False
    assert flags[0][0] and flags[1][0] and flags[1][1]


def test_displayed_instance_reproduces_failure():
    block = noninvariant_block_example()
    inst = noninvariant_block_instance()
    lhs = block.block_evaluate(inst["lhs"])
    rhs = block.block_evaluate(inst["rhs"])
    unit = block.entries[0][0].unit_value()
    # the (1,1) block of the difference is exactly the entry map's unit value
    assert np.allclose((lhs - rhs)[:2, :2], unit, atol=1e-13)
    assert np.linalg.norm(lhs - rhs, 2) >= 0.5 * np.linalg.norm(unit, 2)


def test_block_adjoint_involutive_and_symmetry(corpus):
    block = corpus[10].block_map
    twice = block.block_adjoint().block_adjoint()
    for i in range(block.n):
        for j in range(block.n):
            assert np.array_equal(twice.entries[i][j].coeffs, block.entries[i][j].coeffs)
    assert block.block_is_symmetric()


def _take_adjoint(phi):
    """The adjoint by k ``np.take`` copies, one per slot: the oracle of the
    reversed-star gather."""
    out = phi.coeffs
    for ax in range(phi.k):
        out = np.take(out, phi.algebra.star_perm, axis=ax)
    return np.conj(out.transpose(list(reversed(range(phi.k))) + [phi.k + 1, phi.k]))


def _all_pairs_symmetry_deviation(block):
    return float(max(
        np.abs(block.entries[i][j].coeffs - _take_adjoint(block.entries[j][i])).max()
        for i in range(block.n)
        for j in range(block.n)
    ))


def _perturbed_n3_grid():
    block = as_block_map(random_icp(Algebra([2]), 3, 3, 1, seed=0)[0])
    bad = block.entries[0][2].coeffs.copy()
    bad[1, 2, 3] += 0.25 - 0.5j
    entries = [list(row) for row in block.entries]
    entries[0][2] = MultilinearMap(block.algebra, 3, 1, bad)
    return BlockMultilinearMap(entries)


def test_symmetry_over_unordered_pairs_matches_all_pairs(corpus):
    blocks = [entry.block_map for entry in corpus]
    blocks += [as_block_map(load_map_spec({"kind": "psi"})), _perturbed_n3_grid()]
    for block in blocks:
        for row in block.entries:
            for phi in row:
                assert np.array_equal(phi.adjoint().coeffs, _take_adjoint(phi))
        fresh = BlockMultilinearMap(block.entries)
        assert fresh._symmetry_deviation == _all_pairs_symmetry_deviation(block)
    assert not blocks[-1].block_is_symmetric()
    assert blocks[-1]._symmetry_deviation > 0.5


def test_schur_hermitian_multiplier_is_symmetric():
    lam = np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, 2.0]])
    assert schur_block_map(lam).block_is_symmetric(tol=0)
    lam_bad = np.array([[1.0, 0.5], [0.6, 2.0]])
    assert not schur_block_map(lam_bad).block_is_symmetric(tol=1e-3)


def test_block_invariant_implies_entries_invariant(corpus):
    for entry in corpus[:10]:
        if entry.n == 1 or entry.k <= 2:
            assert all(all(row) for row in entry.block_map.entries_invariant())


def test_grid_shape_errors():
    phi = point_evaluation_example(2)
    psi = trace_example(2)
    with pytest.raises(AlgebraMismatchError):
        BlockMultilinearMap([[phi, psi], [psi, phi]])
    with pytest.raises(ValueError):
        BlockMultilinearMap([[phi], [phi]])
