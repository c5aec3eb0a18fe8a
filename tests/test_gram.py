import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpmaps.algebra import Algebra, amplified_algebra, multiply, random_element
from icpmaps.blockmap import BlockMultilinearMap
from icpmaps.errors import NonHermitianGramError
from icpmaps.factory import (
    noninvariant_block_example,
    point_evaluation_example,
    random_icp,
    schur_block_map,
    trace_example,
    worked_level2_tuple,
)
from icpmaps.gram import (
    admissibility_report,
    build_gram,
    cp_refute,
    gram_is_psd,
    positivity_falsify,
    sample_admissible_tuple,
)
from icpmaps.multimap import MultilinearMap


# -- admissible tuples ---------------------------------------------------------


@pytest.mark.parametrize("k,t", [(1, 1), (2, 1), (3, 1), (3, 2), (4, 2)])
def test_sampled_tuples_are_admissible(k, t):
    alg = Algebra([2])
    mats = sample_admissible_tuple(alg, k, t, np.random.default_rng(3))
    assert len(mats) == k
    report = admissibility_report(mats)
    assert report["palindromic"] and report["palindrome_deviation"] == 0.0
    assert report["admissible"]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 5),
    t=st.integers(1, 2),
    seed=st.integers(0, 10_000),
    blocks=st.sampled_from([(1, 1), (2,), (2, 1)]),
)
def test_admissibility_holds_for_all_samples(k, t, seed, blocks):
    mats = sample_admissible_tuple(Algebra(blocks), k, t, np.random.default_rng(seed))
    assert admissibility_report(mats)["admissible"]


def test_sampled_tuple_structure_odd():
    alg = Algebra([1, 1])
    mats = sample_admissible_tuple(alg, 3, 1, np.random.default_rng(5))
    amp = amplified_algebra(alg, 1)
    mid = amp.embed(mats[1])
    assert mid.is_positive()
    assert np.array_equal(mats[2].coords, mats[0].star().coords)


def test_sampled_tuple_structure_even():
    alg = Algebra([1, 1])
    mats = sample_admissible_tuple(alg, 4, 1, np.random.default_rng(5))
    assert np.array_equal(mats[3].coords, mats[0].star().coords)
    assert np.array_equal(mats[2].coords, mats[1].star().coords)


def test_sampling_is_seed_deterministic():
    alg = Algebra([2])
    a = sample_admissible_tuple(alg, 3, 2, np.random.default_rng(11))
    b = sample_admissible_tuple(alg, 3, 2, np.random.default_rng(11))
    for x, y in zip(a, b):
        assert np.array_equal(x.coords, y.coords)


# -- falsifier --------------------------------------------------------------------


def test_falsifier_silent_on_trace_example():
    assert positivity_falsify(trace_example(2), levels=(1, 2), trials=120, seed=0) is None


def test_falsifier_finds_sign_flip():
    coeffs = np.zeros((2, 2, 2, 1, 1), dtype=complex)
    coeffs[0, 0, 0] = -1.0
    neg = MultilinearMap(Algebra([1, 1]), 3, 1, coeffs)
    ce = positivity_falsify(neg, levels=(1,), trials=100, seed=0)
    assert ce is not None and ce.level == 1 and ce.min_eigenvalue < 0
    assert admissibility_report(ce.mats)["admissible"]


def test_falsifier_silent_on_dilation_corpus(small_corpus):
    for entry in small_corpus:
        ce = positivity_falsify(entry.block_map, levels=(1, 2, 3), trials=40, seed=entry.seed)
        assert ce is None, entry.name


# -- Gram kernel --------------------------------------------------------------------


def test_worked_example_gram_by_brute_force():
    """All 16 basis pairs computed via the defining formula with explicit
    element arithmetic."""
    phi = point_evaluation_example(2)
    gram = build_gram(phi)
    assert gram.size == 4
    alg = phi.algebra
    expected = np.zeros((4, 4), dtype=complex)
    for q1 in range(2):
        for q2 in range(2):
            for p1 in range(2):
                for p2 in range(2):
                    args = [
                        alg.basis_element(q2).star(),
                        multiply(alg.basis_element(q1).star(), alg.basis_element(p1)),
                        alg.basis_element(p2),
                    ]
                    expected[q1 * 2 + q2, p1 * 2 + p2] = phi.evaluate(args)[0, 0]
    assert np.array_equal(gram.matrix, expected)
    assert expected[0, 0] == 1.0 and np.count_nonzero(expected) == 1
    assert not gram.matrix.flags.writeable


@pytest.mark.parametrize("blocks", [(2,), (2, 1), (1, 1, 1)], ids=["m2", "m2c", "c3"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gram_entries_are_the_defining_values(blocks, k):
    """On random non-invariant grids with n, h in {1, 2}, the (i, j) block at
    row tuple beta and column tuple alpha is phi_ij evaluated on basis
    elements at its defining tuple: every tuple pair where there are at most
    256, else 256 drawn ones, among them for odd k pairs with e_{q_1}* e_{p_1} = 0."""
    alg = Algebra(list(blocks))
    d, m = alg.dim, (k + 1) // 2
    e = [alg.basis_element(p) for p in range(d)]
    rng = np.random.default_rng([k, *blocks])
    pairs = list(itertools.product(np.ndindex((d,) * m), repeat=2))
    for n, h in itertools.product((1, 2), (1, 2)):
        shape = (d,) * k + (h, h)
        entries = [
            [MultilinearMap(alg, k, h, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(n)]
            for _ in range(n)
        ]
        gram = build_gram(BlockMultilinearMap(entries)).matrix
        vanishing = 0
        for pick in rng.permutation(len(pairs))[:256]:
            beta, alpha = pairs[pick]
            if k % 2:
                middle = multiply(e[beta[0]].star(), e[alpha[0]])
                vanishing += not middle.coords().any()
                args = [e[q].star() for q in beta[:0:-1]] + [middle] + [e[p] for p in alpha[1:]]
            else:
                args = [e[q].star() for q in beta[::-1]] + [e[p] for p in alpha]
            row, col = (np.ravel_multi_index(t, (d,) * m) * n * h for t in (beta, alpha))
            for i, j in np.ndindex(n, n):
                got = gram[row + i * h : row + (i + 1) * h, col + j * h : col + (j + 1) * h]
                assert np.array_equal(got, entries[i][j].evaluate(args)), (n, h, beta, alpha, i, j)
        assert vanishing or k % 2 == 0


def test_gram_k1_is_choi_type_matrix():
    lam = np.array([[1.0, 0.5], [0.5, 1.0]])
    block = schur_block_map(lam)
    gram = build_gram(block)
    # k=1 on a one-dimensional algebra: kernel entries are phi_ij(e* e) = lam_ij
    assert np.array_equal(gram.matrix, lam.astype(complex))


def test_gram_of_zero_map_is_zero():
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    assert np.abs(build_gram(zero).matrix).max() == 0.0


def test_gram_psd_verdicts(small_corpus):
    ok, min_eig = gram_is_psd(build_gram(point_evaluation_example(2)))
    assert ok and min_eig == 0.0
    for entry in small_corpus:
        gram = build_gram(entry.block_map)
        ok, min_eig = gram_is_psd(gram)
        assert ok and min_eig >= -1e-9 * max(1.0, gram.norm()), entry.name


def test_gram_detects_negative_unit_coefficient():
    coeffs = point_evaluation_example(2).coeffs.copy()
    coeffs[0, 0, 0] = -1.0
    phi = MultilinearMap(Algebra([1, 1]), 3, 1, coeffs)
    ok, min_eig = gram_is_psd(build_gram(phi))
    assert not ok and min_eig <= -0.5


def test_non_hermitian_gram_raises():
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((2, 2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 2, 1, 1))
    phi = MultilinearMap(Algebra([1, 1]), 3, 1, coeffs)
    with pytest.raises(NonHermitianGramError):
        gram_is_psd(build_gram(phi))


def test_cp_refute(small_corpus):
    for entry in small_corpus[:6]:
        assert cp_refute(entry.block_map) is None, entry.name
    neg = MultilinearMap(Algebra([2]), 3, 2, -trace_example(2).coeffs)
    record = cp_refute(neg)
    assert record is not None and record.min_eigenvalue < 0
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    assert cp_refute(zero) is None


def test_falsifier_and_refuter_agree_on_sign_flip():
    coeffs = np.zeros((2, 2, 2, 1, 1), dtype=complex)
    coeffs[0, 0, 0] = -1.0
    neg = MultilinearMap(Algebra([1, 1]), 3, 1, coeffs)
    assert positivity_falsify(neg, levels=(1,), trials=100, seed=0) is not None
    assert cp_refute(neg) is not None


def test_gram_of_adjoint_is_conjugate_transpose(rng):
    alg = Algebra([1, 1])
    coeffs = rng.standard_normal((2, 2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2, 2))
    phi = MultilinearMap(alg, 3, 2, coeffs)
    g = build_gram(phi).matrix
    g_adj = build_gram(phi.adjoint()).matrix
    assert np.abs(g_adj - g.conj().T).max() <= 1e-10 * (1 + np.abs(g).max())
    block = BlockMultilinearMap.constant_grid(phi, 2)
    gb = build_gram(block).matrix
    gb_adj = build_gram(block.block_adjoint()).matrix
    assert np.abs(gb_adj - gb.conj().T).max() <= 1e-10 * (1 + np.abs(gb).max())


def test_quadratic_form_matches_definition_sum(rng, corpus):
    """x^dagger G x against the defining double sum over two elementary
    tensors, evaluated with explicit element arithmetic."""
    entry = next(e for e in corpus if e.k == 3 and e.n == 2 and e.d == 2)
    block = entry.block_map
    alg, m, n, h = block.algebra, block.m, block.n, block.h
    gram = build_gram(block)
    d = alg.dim
    for _ in range(3):
        tensors = []
        for _ in range(2):  # two elementary tensors
            factors = [random_element(alg, rng) for _ in range(m)]
            vec = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
            tensors.append((factors, vec))
        # coordinates of the sum inside A^{(x) m} (x) H^n
        x = np.zeros(gram.size, dtype=complex)
        for factors, vec in tensors:
            kron = factors[0].coords()
            for f in factors[1:]:
                kron = np.kron(kron, f.coords())
            x += np.einsum("a,js->ajs", kron, vec).reshape(-1)
        # definition: sum over pairs (l, r) and grid entries
        acc = 0.0 + 0.0j
        for a_factors, f_vec in tensors:
            for b_factors, g_vec in tensors:
                for i in range(n):
                    for j in range(n):
                        args = [b_factors[q].star() for q in range(m - 1, 0, -1)]
                        args.append(multiply(b_factors[0].star(), a_factors[0]))
                        args.extend(a_factors[1:])
                        val = block.entries[i][j].evaluate(args)
                        acc += g_vec[i].conj() @ val @ f_vec[j]
        quad = x.conj() @ gram.matrix @ x
        assert abs(quad - acc) <= 1e-10 * (1 + abs(acc))


def test_quadratic_form_matches_definition_sum_even_arity(rng, corpus):
    """Even-arity kernel: no middle product, the starred factors simply
    precede the unstarred ones."""
    entry = next(e for e in corpus if e.k == 4 and e.n == 2 and e.d == 2)
    block = entry.block_map
    alg, m, n, h = block.algebra, block.m, block.n, block.h
    gram = build_gram(block)
    for _ in range(3):
        factors = [random_element(alg, rng) for _ in range(m)]
        vec = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
        kron = factors[0].coords()
        for f in factors[1:]:
            kron = np.kron(kron, f.coords())
        x = np.einsum("a,js->ajs", kron, vec).reshape(-1)
        args = [factors[q].star() for q in range(m - 1, -1, -1)] + factors
        acc = 0.0 + 0.0j
        for i in range(n):
            for j in range(n):
                val = block.entries[i][j].evaluate(args)
                acc += vec[i].conj() @ val @ vec[j]
        quad = x.conj() @ gram.matrix @ x
        assert abs(quad - acc) <= 1e-10 * (1 + abs(acc))


def test_worked_tuple_admissibility_is_reported():
    report = admissibility_report(worked_level2_tuple())
    assert report["admissible"] is False
    assert report["palindromic"] is False
    assert report["middle_positive"] is True


def test_cp_refute_reads_the_gram_norm_from_the_spectrum(monkeypatch):
    from icpmaps.factory import random_icp

    cp, _ = random_icp(Algebra([2]), 3, 2, 2, seed=1)
    neg = BlockMultilinearMap([[MultilinearMap(phi.algebra, 3, 2, -phi.coeffs) for phi in row] for row in cp.entries])
    # np.linalg.norm(G, 2) calls the svd bound in the module that defines it
    linalg = inspect.unwrap(np.linalg.norm).__globals__
    svds = []

    def counted(real):
        def svd(*args, **kwargs):
            svds.append(np.shape(args[0]))
            return real(*args, **kwargs)
        return svd

    monkeypatch.setitem(linalg, "svd", counted(linalg["svd"]))
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    gram = build_gram(neg)
    record = cp_refute(neg)
    assert record is not None and record.min_eigenvalue < 0
    assert svds == []
    expected = gram.norm()
    assert svds == [gram.matrix.shape]  # the count sees the SVD that norm() runs
    assert abs(record.gram_norm - expected) <= 1e-12 * expected


@pytest.mark.parametrize("levels", [(), (0,), (1, 0), (-2,)])
def test_falsifier_rejects_levels_below_one(levels):
    with pytest.raises(ValueError, match="levels must be"):
        positivity_falsify(trace_example(2), levels=levels, trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_falsifier_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        positivity_falsify(trace_example(2), levels=(1,), trials=trials)


def test_check_cp_computes_the_hermiticity_residual_once(monkeypatch, tmp_path):
    # a certified `check --cp` forms no Gram; on psi, which its anchors do not certify,
    # the refuter inside `dilate` tests the Gram once and the report reads that residual
    import json

    from icpmaps import cli
    from icpmaps.gram import GramKernel

    computed = []
    residual = GramKernel.hermiticity_residual.fget

    def counted(self):
        computed.append(self.size)
        return residual(self)

    monkeypatch.setattr(GramKernel, "hermiticity_residual", property(counted))
    spec, psi, out = tmp_path / "spec.json", tmp_path / "psi.json", tmp_path / "report.json"
    spec.write_text(json.dumps({"kind": "dilation", "algebra": {"blocks": [2]}, "k": 3, "n": 2, "h": 1, "seed": 0}))
    assert cli.main(["check", str(spec), "--cp", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]["cp"]["certificate"]["valid"]
    assert computed == []
    psi.write_text(json.dumps({"kind": "psi"}))
    assert cli.main(["check", str(psi), "--cp", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["checks"]["cp"]["hermiticity_residual"] == 0.5
    assert computed == [64]


# -- class-by-class spectrum ---------------------------------------------------

# the benchmark's spec shapes (blocks, k, n, h), and one whose classes differ in size
BENCHMARK_SHAPES = [((2,), 4, 2, 2), ((2,), 3, 2, 2), ((2, 2), 3, 2, 2), ((2,), 5, 1, 2), ((3,), 4, 1, 2)]
UNEQUAL_CLASSES = ((1, 2), 5, 2, 1)


def _dense_match(gram):
    """Largest gap between the class eigenvalues, sorted, and the dense
    ``eigvalsh`` of the Hermitian part, with its bound 1e-12 (1 + ||G||)."""
    g = gram.matrix
    dense = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    split = np.sort(np.concatenate([lam.ravel() for _, lam, _ in gram.spectrum]))
    return float(np.abs(split - dense).max()), 1e-12 * (1.0 + np.abs(dense).max())


def _assert_split(gram):
    # every index in exactly one class, and no class the whole Gram
    index = np.concatenate([idx.ravel() for idx, _, _ in gram.spectrum])
    assert np.array_equal(np.sort(index), np.arange(gram.size))
    assert all(idx.shape[1] < gram.size for idx, _, _ in gram.spectrum)
    gap, bound = _dense_match(gram)
    assert gap <= bound, (gap, bound)


def test_class_spectra_match_the_dense_eigh_on_the_corpus(corpus):
    for entry in corpus:
        _assert_split(build_gram(entry.block_map))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", BENCHMARK_SHAPES + [UNEQUAL_CLASSES], ids=str)
def test_class_spectra_match_the_dense_eigh_on_generated_maps(shape, seed):
    blocks, k, n, h = shape
    block, _ = random_icp(Algebra(list(blocks)), k, n, h, seed=seed)
    gram = build_gram(block)
    _assert_split(gram)
    sizes = [idx.shape[1] for idx, _, _ in gram.spectrum]
    if shape == UNEQUAL_CLASSES:
        # M_1 + M_2, m = 3: one (block, row) label per factor, each of 1 or 2 units, times n h
        assert sizes == [2, 4, 8, 16]
    else:
        assert len(sizes) == 1


def _class_groups_from_basis_labels(gram):
    """The class index groups as ``GramKernel`` built them from ``basis_label``
    before ``Algebra.row_labels`` existed."""
    alg, m = gram.algebra, (gram.k + 1) // 2
    starts = np.cumsum((0,) + alg.block_dims)
    label = np.array([starts[b] + r for b, r, _ in map(alg.basis_label, range(alg.dim))])
    digits = np.indices((alg.dim,) * m).reshape(m, -1)
    cls = np.repeat(np.ravel_multi_index(label[digits], (starts[-1],) * m), gram.n * gram.h)
    order = np.argsort(cls, kind="stable")
    sizes = np.bincount(cls)
    first = np.cumsum(sizes) - sizes
    return [order[first[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]


def test_class_groups_from_row_labels_match_the_basis_label_oracle(corpus):
    blocks, k, n, h = UNEQUAL_CLASSES
    for block in [entry.block_map for entry in corpus] + [random_icp(Algebra(list(blocks)), k, n, h, seed=0)[0]]:
        gram = build_gram(block)
        expected = _class_groups_from_basis_labels(gram)
        got = [idx for idx, _, _ in gram.spectrum]
        assert len(got) == len(expected) and all(map(np.array_equal, got, expected))


def test_a_grid_of_invariant_entries_splits_though_the_grid_is_not_block_invariant():
    # Psi(a, b, c) = b a c is invariant, so its Gram vanishes between classes
    _assert_split(build_gram(noninvariant_block_example()))


def test_a_gram_with_entries_between_classes_is_diagonalized_whole(rng):
    shape = (5, 5, 5, 2, 2)
    phi = MultilinearMap(Algebra([1, 2]), 3, 2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    gram = build_gram(phi)
    ((idx, lam, u),) = gram.spectrum
    assert np.array_equal(idx, np.arange(gram.size)[None])
    g = gram.matrix
    lam_dense, u_dense = np.linalg.eigh((g + g.conj().T) / 2.0)
    assert np.array_equal(lam[0], lam_dense) and np.array_equal(u[0], u_dense)


@pytest.mark.parametrize(
    "blocks,k,n,h,seed",
    # the lowest eigenvalue in class 1 of the third class size, and in class 3 of eight equal ones
    [((1, 2), 3, 2, 1, 1), ((1, 1, 1), 3, 1, 1, 0)],
)
def test_cp_refute_witness_is_a_full_length_eigenvector(blocks, k, n, h, seed):
    cp, _ = random_icp(Algebra(list(blocks)), k, n, h, seed=seed)
    neg = BlockMultilinearMap([[MultilinearMap(phi.algebra, k, h, -phi.coeffs) for phi in row] for row in cp.entries])
    gram = build_gram(neg)
    record = cp_refute(neg)
    x = record.witness
    assert x.shape == (gram.size,) and abs(np.linalg.norm(x) - 1.0) <= 1e-12
    g = gram.matrix
    residual = np.linalg.norm(g @ x - record.min_eigenvalue * x)
    assert residual <= 1e-10 * record.gram_norm
    dense = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    assert abs(record.min_eigenvalue - dense[0]) <= 1e-12 * (1.0 + np.abs(dense).max())
