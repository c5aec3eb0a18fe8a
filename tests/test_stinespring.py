import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from icpmaps import cli, serialize, stinespring
from icpmaps.algebra import Algebra
from icpmaps.errors import NotCompletelyPositiveError, QuotientDescentError
from icpmaps.factory import (
    point_evaluation_example,
    random_icp,
    schur_block_map,
    trace_example,
)
from icpmaps.gram import build_gram
from icpmaps.multimap import MultilinearMap
from icpmaps.stinespring import (
    DilationTriple,
    dilate,
    block_state_vectors,
    minimal_compress,
    theorem_form_values,
    unitary_equivalence,
    verify_dilation,
)


def test_worked_example_dilation_is_rank_one():
    phi = point_evaluation_example(2)
    triple = dilate(phi)
    assert triple.kappa == 1
    # both representations evaluate the first coordinate
    for p in range(2):
        assert abs(triple.reps[p][0, 0, 0] - 1.0) <= 1e-12
        assert abs(triple.reps[p][1, 0, 0]) <= 1e-12
    assert abs(triple.V[0][0, 0] - 1.0) <= 1e-12
    report = verify_dilation(phi, triple)
    assert report.reconstruction <= 1e-13
    assert report.max_structural() <= 1e-13


def test_zero_map_dilates_to_empty_triple():
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    triple = dilate(zero)
    assert triple.kappa == 0
    report = verify_dilation(zero, triple)
    assert report.reconstruction == 0.0


def test_non_psd_gram_refuses_dilation():
    coeffs = np.zeros((2, 2, 2, 1, 1), dtype=complex)
    coeffs[0, 0, 0] = -1.0
    neg = MultilinearMap(Algebra([1, 1]), 3, 1, coeffs)
    with pytest.raises(NotCompletelyPositiveError):
        dilate(neg)


def test_roundtrip_on_corpus(corpus):
    for entry in corpus:
        block = entry.block_map
        triple = dilate(block)
        report = verify_dilation(block, triple)
        scale = 1.0 + block.coefficient_scale()
        assert report.reconstruction <= 1e-8 * scale, entry.name
        assert report.max_structural() <= 1e-9, entry.name
        gram = build_gram(block)
        rank = np.linalg.matrix_rank(gram.matrix, tol=1e-8 * max(1.0, gram.norm()))
        assert triple.kappa == rank, entry.name


def _left_mult_oracle(alg, m, tail, p, b):
    """L_{p,b}, left multiplication by e_b on tensor factor p of
    A^{tensor m} (x) H^n, built one coordinate at a time; tail = n h."""
    d = alg.dim
    bb, br, bc = alg.basis_label(b)
    out = np.zeros((d**m * tail, d**m * tail))
    for alpha in itertools.product(range(d), repeat=m):
        qb, qr, qc = alg.basis_label(alpha[p])
        if (qb, qr) != (bb, bc):
            continue  # e_b e_q = 0
        beta = alpha[:p] + (alg.basis_index(bb, br, qc),) + alpha[p + 1 :]
        src = int(np.ravel_multi_index(alpha, (d,) * m)) * tail
        dst = int(np.ravel_multi_index(beta, (d,) * m)) * tail
        out[dst : dst + tail, src : src + tail] = np.eye(tail)
    return out


def _unit_slot_oracle(alg, m, n, h, j):
    """iota_j : f -> 1 x .. x 1 x (f at slot j); the unit is the sum of the
    diagonal matrix units."""
    d = alg.dim
    out = np.zeros((d**m * n * h, h))
    for alpha in itertools.product(range(d), repeat=m):
        if all(alg.basis_label(q)[1] == alg.basis_label(q)[2] for q in alpha):
            row = (int(np.ravel_multi_index(alpha, (d,) * m)) * n + j) * h
            out[row : row + h] = np.eye(h)
    return out


def test_quotient_maps_match_coordinate_oracles(corpus):
    # pi_p(e_b) W = W L_{p,b} on the quotient, and V_j = W iota_j
    for entry in corpus:
        block = entry.block_map
        alg, m, n, h = block.algebra, block.m, block.n, block.h
        triple = dilate(block)
        w = triple.W
        scale = max(1.0, np.linalg.norm(w, 2))
        for p in range(m):
            for b in range(alg.dim):
                lhs = triple.reps[p][b] @ w
                rhs = w @ _left_mult_oracle(alg, m, n * h, p, b)
                assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * scale, (entry.name, p, b)
        for j in range(n):
            v_oracle = w @ _unit_slot_oracle(alg, m, n, h, j)
            assert np.linalg.norm(triple.V[j] - v_oracle, 2) <= 1e-12 * scale, (entry.name, j)


@pytest.fixture(scope="module")
def non_invariant_psd_map():
    """k = 2 scalar map on M_2 with phi(e_a, e_b) = G[a*, b], G = z z*: its
    Gram is G, PSD, but the map is not invariant, so ker G is not preserved
    by left multiplication."""
    alg = Algebra([2])
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    g = z @ z.conj().T
    return MultilinearMap(alg, 2, 1, g[alg.star_perm][:, :, None, None])


def test_non_invariant_map_fails_quotient_descent(non_invariant_psd_map):
    phi = non_invariant_psd_map
    assert phi.is_symmetric() and not phi.is_invariant()
    with pytest.raises(QuotientDescentError) as err:
        dilate(phi)
    assert (err.value.factor, err.value.basis_index) == (0, 0)
    assert err.value.residual == pytest.approx(1.1413, abs=1e-4)


def test_non_invariant_map_is_diagonalized_whole(non_invariant_psd_map):
    # its Gram has entries between classes: one eigh of the whole matrix
    gram = build_gram(non_invariant_psd_map)
    ((idx, _, _),) = gram.spectrum
    assert np.array_equal(idx, np.arange(gram.size)[None])


def test_cli_dilate_quotient_descent_failure_is_obstruction(non_invariant_psd_map, tmp_path):
    spec = tmp_path / "non_invariant.json"
    spec.write_text(serialize.dumps(serialize.map_to_json(non_invariant_psd_map)))
    assert cli.main(["dilate", str(spec)]) == 3


def test_fault_injection_raises_residual(corpus):
    entry = corpus[4]
    triple = dilate(entry.block_map)
    broken_reps = list(triple.reps)
    tampered = broken_reps[0].copy()
    tampered[0] = 0.0
    broken_reps[0] = tampered
    broken = DilationTriple(
        algebra=triple.algebra,
        k=triple.k,
        n=triple.n,
        h=triple.h,
        kappa=triple.kappa,
        reps=tuple(broken_reps),
        V=triple.V,
    )
    report = verify_dilation(entry.block_map, broken)
    assert report.reconstruction > 1e-3


def test_verify_shape_mismatch():
    phi = point_evaluation_example(2)
    other = dilate(trace_example(2))
    with pytest.raises(ValueError):
        verify_dilation(phi, other)


def test_dilated_triples_are_already_minimal(corpus):
    for entry in corpus[:8]:
        triple = dilate(entry.block_map)
        compressed, report = minimal_compress(triple)
        assert report.is_minimal
        assert compressed.kappa == triple.kappa


def test_worked_example_triple_is_minimal():
    phi = point_evaluation_example(2)
    triple = dilate(phi)
    _, report = minimal_compress(triple)
    assert report.is_minimal and report.spanning_rank == 1


def test_compression_strips_unreachable_summand(corpus):
    entry = next(e for e in corpus if e.k == 3 and e.n == 1 and e.d == 2)
    base = minimal_compress(dilate(entry.block_map))[0]
    extra_block, extra_triple = random_icp(entry.block_map.algebra, entry.k, entry.n, entry.h, seed=999)
    pad = extra_triple.kappa
    reps = tuple(
        np.stack([np.block([
            [rp[b], np.zeros((base.kappa, pad))],
            [np.zeros((pad, base.kappa)), xp[b]],
        ]) for b in range(entry.block_map.algebra.dim)])
        for rp, xp in zip(base.reps, extra_triple.reps)
    )
    v_ops = tuple(np.vstack([vj, np.zeros((pad, entry.h))]) for vj in base.V)
    inflated = DilationTriple(
        algebra=base.algebra, k=base.k, n=base.n, h=base.h,
        kappa=base.kappa + pad, reps=reps, V=v_ops,
    )
    assert verify_dilation(entry.block_map, inflated).reconstruction <= 1e-10
    compressed, report = minimal_compress(inflated)
    assert not report.is_minimal
    assert compressed.kappa == base.kappa
    assert report.largest_rejected <= 1e-13 and report.smallest_kept > 1e-3
    assert _entry_distance(compressed, minimal_compress(base)[0]) <= 1e-12
    assert verify_dilation(entry.block_map, compressed).reconstruction <= 1e-10


def test_compress_zero_triple_unchanged():
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    triple = dilate(zero)
    compressed, report = minimal_compress(triple)
    assert compressed.kappa == 0 and report.is_minimal


def test_equivalence_with_unitary_conjugate(corpus):
    entry = corpus[12]
    t1, _ = minimal_compress(dilate(entry.block_map))
    rng = np.random.default_rng(8)
    z = rng.standard_normal((t1.kappa, t1.kappa)) + 1j * rng.standard_normal((t1.kappa, t1.kappa))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    t2 = DilationTriple(
        algebra=t1.algebra, k=t1.k, n=t1.n, h=t1.h, kappa=t1.kappa,
        reps=tuple(np.einsum("ij,ajk,lk->ail", u, rp, u.conj()) for rp in t1.reps),
        V=tuple(u @ vj for vj in t1.V),
    )
    report = unitary_equivalence(t1, t2)
    assert report.unitarity <= 1e-9
    assert report.intertwining <= 1e-9
    assert report.v_match <= 1e-9


def test_equivalence_of_independent_constructions(corpus):
    for entry in corpus[:10]:
        t1, _ = minimal_compress(dilate(entry.block_map))
        t2, _ = minimal_compress(entry.triple)
        report = unitary_equivalence(t1, t2)
        assert report.unitarity <= 1e-9, entry.name
        assert report.intertwining <= 1e-7, entry.name
        assert report.v_match <= 1e-7, entry.name


def test_self_equivalence_is_identity(corpus):
    entry = corpus[3]
    t1, _ = minimal_compress(dilate(entry.block_map))
    report = unitary_equivalence(t1, t1)
    assert np.abs(report.U - np.eye(t1.kappa)).max() <= 1e-10
    assert report.unitarity <= 1e-12 and report.intertwining <= 1e-12 and report.v_match <= 1e-12


def test_recompression_is_identity_up_to_unitary(corpus):
    entry = corpus[6]
    t1, _ = minimal_compress(dilate(entry.block_map))
    t2, report = minimal_compress(t1)
    assert report.is_minimal
    eq = unitary_equivalence(t1, t2)
    assert eq.unitarity <= 1e-9 and eq.intertwining <= 1e-9 and eq.v_match <= 1e-9


def _haar_conjugate(triple, seed):
    z = np.random.default_rng(seed).standard_normal((2, triple.kappa, triple.kappa))
    q, r = np.linalg.qr(z[0] + 1j * z[1])
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return DilationTriple(
        algebra=triple.algebra, k=triple.k, n=triple.n, h=triple.h, kappa=triple.kappa,
        reps=tuple(u @ rp @ u.conj().T for rp in triple.reps), V=tuple(u @ vj for vj in triple.V),
    )


def _entry_distance(t1, t2):
    assert t1.kappa == t2.kappa
    return max(float(np.abs(x - y).max(initial=0.0)) for x, y in zip(t1.reps + t1.V, t2.reps + t2.V))


def test_canonical_triple_is_unitarily_invariant(corpus):
    # one representative per class: the dilation, a Haar conjugate of it and the
    # generator's provenance triple compress to the same triple
    for entry in corpus[:12]:
        triple = dilate(entry.block_map)
        base, walk = minimal_compress(triple)
        assert walk.is_minimal and walk.spanning_rank == triple.kappa, entry.name
        for other in (_haar_conjugate(triple, 3), entry.triple):
            again, other_walk = minimal_compress(other)
            assert other_walk.kept_columns == walk.kept_columns, entry.name
            assert _entry_distance(base, again) <= 1e-12, entry.name


# the benchmark's spec shapes (blocks, k, n, h): grid3, grid4, grid3-wide, plain, wide
BENCHMARK_SHAPES = [((2,), 3, 2, 2), ((2,), 4, 2, 2), ((2, 2), 3, 2, 2), ((2,), 5, 1, 2), ((3,), 4, 1, 2)]


def _outside_label_blocks(triple, kept):
    """Per factor p, True at (b, i, j) where the image of pi_p(e_b) in the
    canonical basis over the ``kept`` spanning columns vanishes: the (block,
    row) labels of column i's tuple and column j's tuple must be those of the
    row and the column of e_b in factor p, and agree in every other factor."""
    alg, m = triple.algebra, triple.m
    labels = [
        [alg.basis_label(b)[:2] for b in np.unravel_index(c // (triple.n * triple.h), (alg.dim,) * m)]
        for c in kept
    ]
    outside = []
    for p in range(m):
        mask = np.ones((alg.dim, len(kept), len(kept)), dtype=bool)
        for b in range(alg.dim):
            blk, r, c = alg.basis_label(b)
            for i, li in enumerate(labels):
                for j, lj in enumerate(labels):
                    others = all(li[q] == lj[q] for q in range(m) if q != p)
                    mask[b, i, j] = not (others and li[p] == (blk, r) and lj[p] == (blk, c))
        outside.append(mask)
    return outside


def test_canonical_images_vanish_exactly_outside_the_label_blocks(corpus):
    cases = [(entry.name, entry.block_map, entry.triple, False) for entry in corpus]
    for (blocks, k, n, h), seed in itertools.product(BENCHMARK_SHAPES, range(4)):
        block, triple = random_icp(Algebra(list(blocks)), k, n, h, seed=seed)
        cases.append((f"{blocks}-k{k}-n{n}-h{h}-seed{seed}", block, triple, True))
    for name, block, triple, benchmark in cases:
        canonical, walk = minimal_compress(triple)
        outside = _outside_label_blocks(triple, walk.kept_columns)
        q, _ = stinespring._canonical_basis(triple.spanning_matrix())
        for rp, image, mask in zip(triple.reps, canonical.reps, outside):
            assert not image[mask].any(), name
            # only round-off is dropped: the images before masking
            full = q.conj().T @ rp @ q
            assert np.abs(full - image).max() <= 1e-13 * np.abs(image).max(), name
        # a 1e-15 perturbation of V keeps the walk and the zeros
        shifted = replace(triple, V=tuple(vj + 1e-15 for vj in triple.V))
        again, shifted_walk = minimal_compress(shifted)
        assert shifted_walk.kept_columns == walk.kept_columns, name
        assert all(not image[mask].any() for image, mask in zip(again.reps, outside)), name
        if benchmark:
            # the dilation's own triple is already zero there before masking
            dilated = dilate(block)
            q, dilated_walk = stinespring._canonical_basis(dilated.spanning_matrix())
            assert dilated_walk.kept_columns == walk.kept_columns, name
            for rp, mask in zip(dilated.reps, outside):
                assert not (q.conj().T @ rp @ q)[mask].any(), name


def test_walk_reports_the_margins_of_its_cut(corpus):
    entry = next(e for e in corpus if e.k == 3 and e.n == 1 and e.d == 2)
    triple = dilate(entry.block_map)
    _, walk = minimal_compress(triple)
    assert set(walk.to_dict()) == {"spanning_rank", "kappa", "is_minimal", "smallest_kept", "largest_rejected"}
    assert walk.smallest_kept > 1e-3 and walk.largest_rejected <= 1e-13
    # the walk keeps the first column above the cut, then walks on in column order
    norms = np.linalg.norm(triple.spanning_matrix(), axis=0)
    assert list(walk.kept_columns) == sorted(walk.kept_columns)
    assert walk.kept_columns[0] == int(np.flatnonzero(norms > 1e-10 * norms.max())[0])
    assert minimal_compress(_haar_conjugate(triple, 4))[1].kept_columns == walk.kept_columns


def test_nonminimal_input_rejected(corpus):
    entry = next(e for e in corpus if e.k == 3 and e.n == 1 and e.d == 2)
    base = dilate(entry.block_map)
    extra_block, extra_triple = random_icp(entry.block_map.algebra, entry.k, entry.n, entry.h, seed=999)
    pad = extra_triple.kappa
    reps = tuple(
        np.stack([np.block([
            [rp[b], np.zeros((base.kappa, pad))],
            [np.zeros((pad, base.kappa)), xp[b]],
        ]) for b in range(entry.block_map.algebra.dim)])
        for rp, xp in zip(base.reps, extra_triple.reps)
    )
    v_ops = tuple(np.vstack([vj, np.zeros((pad, entry.h))]) for vj in base.V)
    inflated = DilationTriple(
        algebra=base.algebra, k=base.k, n=base.n, h=base.h,
        kappa=base.kappa + pad, reps=reps, V=v_ops,
    )
    with pytest.raises(ValueError, match="not minimal"):
        unitary_equivalence(inflated, base)


def test_dimension_mismatch_rejected(corpus):
    a = next(e for e in corpus if e.k == 2 and e.n == 1 and e.d == 2 and e.h == 1)
    b = next(e for e in corpus if e.k == 2 and e.n == 1 and e.d == 2 and e.h == 2)
    ta, _ = minimal_compress(dilate(a.block_map))
    tb, _ = minimal_compress(dilate(b.block_map))
    if ta.kappa != tb.kappa:
        with pytest.raises(ValueError, match="dimension mismatch"):
            unitary_equivalence(ta, tb)


def test_block_state_vectors_worked_example():
    phi = point_evaluation_example(2)
    vectors, report = block_state_vectors(phi)
    assert len(vectors) == 1 and vectors[0].shape == (1,)
    assert abs(vectors[0][0] - 1.0) <= 1e-12
    assert report.reconstruction <= 1e-13


def test_schur_state_recovers_multiplier():
    lam = np.array([[1.0, 0.4 + 0.1j], [0.4 - 0.1j, 0.8]])
    block = schur_block_map(lam)
    vectors, report = block_state_vectors(block)
    assert report.reconstruction <= 1e-12
    recovered = np.array([[vectors[i].conj() @ vectors[j] for j in range(2)] for i in range(2)])
    assert np.allclose(recovered, lam, atol=1e-12)


def test_block_state_requires_scalar_codomain():
    with pytest.raises(ValueError):
        block_state_vectors(trace_example(2))


def test_zero_state_gives_zero_vectors():
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    vectors, report = block_state_vectors(zero)
    assert vectors[0].size == 0


def test_isometry_when_unit_diagonal(corpus):
    found = 0
    for entry in corpus:
        if not entry.unital_diagonal:
            continue
        triple = dilate(entry.block_map)
        for j in range(entry.n):
            vj = triple.V[j]
            assert np.linalg.norm(vj.conj().T @ vj - np.eye(entry.h), 2) <= 1e-9, entry.name
        found += 1
    assert found >= 3


def test_v_norm_bounded_by_diagonal_unit_value(corpus):
    for entry in corpus[:12]:
        triple = dilate(entry.block_map)
        for j in range(entry.n):
            unit_jj = np.linalg.norm(entry.block_map.entries[j][j].unit_value(), 2)
            assert np.linalg.norm(triple.V[j], 2) <= np.sqrt(unit_jj) + 1e-9


def test_commutation_residual_on_basis_pairs(corpus):
    for entry in corpus[:8]:
        triple = dilate(entry.block_map)
        report = verify_dilation(entry.block_map, triple)
        assert report.commutation <= 1e-9, entry.name


def _theorem_form_oracle(triple):
    """V* pi_1(..) .. pi_m(..) V tuple by tuple: factor p (from 0) receives
    the slots m-1-p and k-m+p, a single slot when they coincide."""
    alg, k, m = triple.algebra, triple.k, triple.m
    basis = [alg.basis_element(b) for b in range(alg.dim)]
    vs = triple.stacked_V()
    out = np.empty((alg.dim,) * k + (vs.shape[1],) * 2, dtype=np.complex128)
    for a in itertools.product(range(alg.dim), repeat=k):
        prod = np.eye(triple.kappa)
        for p in range(m):
            lo, hi = m - 1 - p, k - m + p
            x = basis[a[lo]] if lo == hi else basis[a[lo]] * basis[a[hi]]
            prod = prod @ triple.rep_apply(p, x)
        out[a] = vs.conj().T @ prod @ vs
    return out


@pytest.mark.parametrize("n,h", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_theorem_form_values_matches_tuple_loop(k, n, h):
    # generic (non-commuting, non-multiplicative) stacks on a non-commutative
    # algebra, so a wrong factor order or slot pairing changes the values
    alg = Algebra([1, 2]) if k <= 4 else Algebra([2])
    kappa = 3
    rng = np.random.default_rng([k, n, h])

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m = (k + 1) // 2
    triple = DilationTriple(
        algebra=alg, k=k, n=n, h=h, kappa=kappa,
        reps=tuple(gaussian(alg.dim, kappa, kappa) for _ in range(m)),
        V=tuple(gaussian(kappa, h) for _ in range(n)),
    )
    expected = _theorem_form_oracle(triple)
    got = theorem_form_values(alg, triple.reps, triple.V, k)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_theorem_form_values_memory():
    # the kappa-by-kappa chain over all d^k tuples would need 136 MB here
    _, triple = random_icp(Algebra([3]), 4, 1, 2, seed=0)
    assert triple.kappa == 36
    tracemalloc.start()
    try:
        theorem_form_values(triple.algebra, triple.reps, triple.V, triple.k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_reconstruction_residual_in_chunks_is_the_whole_stack_maximum(corpus, monkeypatch):
    cases = [(e.block_map, e.triple) for e in corpus[::7]]
    cases.append(random_icp(Algebra([1, 2]), 5, 2, 1, seed=3))
    for block, triple in cases:
        vals = theorem_form_values(block.algebra, triple.reps, triple.V, block.k)
        vals[-1].flat[-1] += 1.0  # the largest residual in the last chunk
        whole = stinespring._batched_opnorm_max(vals - block.stacked_coeffs())
        assert stinespring._reconstruction_residual(block, vals) == whole
        monkeypatch.setattr(stinespring, "RECONSTRUCTION_CHUNK_BYTES", 1)  # one first-slot value per chunk
        assert stinespring._reconstruction_residual(block, vals) == whole
        monkeypatch.undo()
        assert stinespring._batched_opnorm_max(vals - block.stacked_coeffs(), 2.0 * whole + 1.0) == 2.0 * whole + 1.0


def test_reconstruction_residual_holds_no_second_map_sized_tensor(monkeypatch):
    # M_2 + M_2, k = 4, n = 2, h = 2: values of 1 MB, in chunks of one first-slot value (1/8)
    block, triple = random_icp(Algebra([2, 2]), 4, 2, 2, seed=0)
    vals = theorem_form_values(block.algebra, triple.reps, triple.V, block.k)
    monkeypatch.setattr(stinespring, "RECONSTRUCTION_CHUNK_BYTES", vals[0].nbytes)
    tracemalloc.start()
    try:
        stinespring._reconstruction_residual(block, vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < vals.nbytes, (peak, vals.nbytes)  # 3.7 MB over the whole stack at once


@pytest.mark.parametrize("rank_tol", [-1.0, -1e-12, float("nan"), float("inf")])
def test_rank_tol_must_be_finite_and_nonnegative(rank_tol):
    phi = trace_example(2)
    with pytest.raises(ValueError, match="rank_tol must be"):
        dilate(phi, rank_tol=rank_tol)
    with pytest.raises(ValueError, match="rank_tol must be"):
        minimal_compress(dilate(phi), rank_tol=rank_tol)
