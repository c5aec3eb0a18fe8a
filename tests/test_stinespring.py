import itertools
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from icpmaps import cli, gram, serialize, stinespring
from icpmaps.algebra import Algebra
from icpmaps.errors import DilationObstructionError, NotCompletelyPositiveError
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
    law_residuals,
    minimal_compress,
    theorem_form_values,
    unitary_equivalence,
    verify_dilation,
)
from icpmaps.tolerances import certifies


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


def test_empty_triple_reconstruction_residual_is_a_spectral_norm():
    # M_2, k = 2, h = 2 with phi(e_(1,1), e_(1,1)) = [[1, 1], [1, 1]] and all else 0: no anchor
    # reaches e_(1,1), so kappa = 0 and the residual is ||phi(e_(1,1), e_(1,1))|| = 2, not its largest entry
    alg = Algebra([2])
    coeffs = np.zeros((4, 4, 2, 2), dtype=complex)
    e = alg.basis_index(0, 1, 1)
    coeffs[e, e] = 1.0
    phi = MultilinearMap(alg, 2, 2, coeffs)
    with pytest.raises(DilationObstructionError) as raised:
        dilate(phi)
    assert raised.value.kappa == 0
    assert raised.value.report == stinespring.DilationReport(2.0, 0.0, 0.0, 0.0, 0.0)


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


def _standard_images_oracle(alg, layout):
    """pi_p(e_(b,r,c)) of the standard form, one basis vector at a time: the
    vector (lambda, r', i), in C order of lambda, then r', then i, goes to
    the one with r'_p = r when lambda_p = b and r'_p = c, else to 0."""
    m = layout.ndim
    basis = [
        (lam, rows, i)
        for lam in itertools.product(range(alg.n_blocks), repeat=m)
        for rows in itertools.product(*(range(alg.block_dims[b]) for b in lam))
        for i in range(layout[lam])
    ]
    position = {vec: pos for pos, vec in enumerate(basis)}
    out = np.zeros((m, alg.dim, len(basis), len(basis)))
    for p, e in itertools.product(range(m), range(alg.dim)):
        b, r, c = alg.basis_label(e)
        for lam, rows, i in basis:
            if lam[p] == b and rows[p] == c:
                target = (lam, rows[:p] + (r,) + rows[p + 1 :], i)
                out[p, e, position[target], position[(lam, rows, i)]] = 1.0
    return out


def test_standard_form_matches_coordinate_oracles(corpus):
    # the images are the layout's 0/1 matrix units, and row (lambda, r, i) of V is
    # M[i, (r, j, s)] for an echelon M with real positive pivots and M* M the anchor Gram
    for entry in corpus:
        block = entry.block_map
        alg, n, h = block.algebra, block.n, block.h
        triple = dilate(block)
        assert np.array_equal(np.stack(triple.reps), _standard_images_oracle(alg, triple.layout)), entry.name
        gram = build_gram(block).matrix
        scale = max(1.0, np.abs(gram).max())
        rows = triple.stacked_V()
        offset = 0
        for lam, index, _ in stinespring.anchor_grams(block):
            legs, mu = int(np.prod([alg.block_dims[b] for b in lam])), int(triple.layout[lam])
            mat = rows[offset : offset + legs * mu].reshape(legs, mu, n * h).transpose(1, 0, 2).reshape(mu, legs * n * h)
            offset += legs * mu
            assert np.abs(mat.conj().T @ mat - gram[np.ix_(index, index)]).max() <= 1e-12 * scale, entry.name
            pivots = [int(np.flatnonzero(row)[0]) for row in mat]
            assert pivots == sorted(set(pivots)), entry.name
            assert all(row[c].imag == 0.0 and row[c].real > 0.0 for row, c in zip(mat, pivots)), entry.name
        assert offset == triple.kappa, entry.name


def test_non_invariant_map_fails_the_anchor_certificate(non_invariant_psd_map, monkeypatch):
    # the anchors give a triple that does not dilate the map; only then is the Gram
    # built, and a Hermitian PSD Gram leaves a construction obstruction
    phi = non_invariant_psd_map
    assert phi.is_symmetric() and not phi.is_invariant()
    built = []
    monkeypatch.setattr(gram, "build_gram", lambda m: built.append(m) or build_gram(m))
    with pytest.raises(DilationObstructionError, match="reconstruction residual") as err:
        dilate(phi)
    assert len(built) == 1
    assert err.value.kappa == 4
    assert err.value.report.reconstruction == pytest.approx(3.8746, abs=1e-4)
    assert err.value.report.max_structural() == 0.0


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
    assert report.isometry <= 1e-9
    assert report.intertwining <= 1e-9
    assert report.v_match <= 1e-9


def test_equivalence_of_independent_constructions(corpus):
    for entry in corpus[:10]:
        t1, _ = minimal_compress(dilate(entry.block_map))
        t2, _ = minimal_compress(entry.triple)
        report = unitary_equivalence(t1, t2)
        assert report.isometry <= 1e-9, entry.name
        assert report.intertwining <= 1e-7, entry.name
        assert report.v_match <= 1e-7, entry.name


def test_self_equivalence_is_identity(corpus):
    entry = corpus[3]
    t1, _ = minimal_compress(dilate(entry.block_map))
    report = unitary_equivalence(t1, t1)
    assert np.abs(report.U - np.eye(t1.kappa)).max() <= 1e-10
    assert report.isometry <= 1e-12 and report.intertwining <= 1e-12 and report.v_match <= 1e-12


def test_recompression_is_identity_up_to_unitary(corpus):
    entry = corpus[6]
    t1, _ = minimal_compress(dilate(entry.block_map))
    t2, report = minimal_compress(t1)
    assert report.is_minimal
    eq = unitary_equivalence(t1, t2)
    assert eq.isometry <= 1e-9 and eq.intertwining <= 1e-9 and eq.v_match <= 1e-9


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
    # generator's provenance triple standardize to the same layout and V
    for entry in corpus[:12]:
        triple = dilate(entry.block_map)
        base, walk = minimal_compress(triple)
        assert walk.is_minimal and walk.spanning_rank == triple.kappa, entry.name
        assert _entry_distance(base, triple) == 0.0, entry.name  # the walk is exact on a standard form
        for other in (_haar_conjugate(triple, 3), entry.triple):
            again, _ = minimal_compress(other)
            assert np.array_equal(again.layout, base.layout), entry.name
            assert _entry_distance(base, again) <= 1e-12, entry.name


# the benchmark's spec shapes (blocks, k, n, h): grid3, grid4, grid3-wide, plain, wide
BENCHMARK_SHAPES = [((2,), 3, 2, 2), ((2,), 4, 2, 2), ((2, 2), 3, 2, 2), ((2,), 5, 1, 2), ((3,), 4, 1, 2)]


def _standard_cases(corpus):
    """(name, map, provenance triple) over the corpus and the benchmark's
    spec shapes at n = 1 and n = 2, seeds 0-3."""
    cases = [(entry.name, entry.block_map, entry.triple) for entry in corpus]
    for (blocks, k, _, h), n, seed in itertools.product(BENCHMARK_SHAPES, (1, 2), range(4)):
        block, triple = random_icp(Algebra(list(blocks)), k, n, h, seed=seed)
        cases.append((f"{blocks}-k{k}-n{n}-h{h}-seed{seed}", block, triple))
    return cases


def test_anchor_blocks_are_principal_submatrices_of_the_gram(corpus):
    for name, block, _ in _standard_cases(corpus):
        gram = build_gram(block).matrix
        alg, m = block.algebra, block.m
        seen = []
        for lam, index, anchor in stinespring.anchor_grams(block):
            assert np.array_equal(anchor, gram[np.ix_(index, index)]), (name, lam)
            seen.append(index)
        # each anchor tuple (e_(b_1,0,c_1), .., e_(b_m,0,c_m)) once, with every (j, s)
        seen = np.concatenate(seen)
        assert len(seen) == len(set(seen)) == sum(alg.block_dims) ** m * block.n * block.h, name


def test_standard_forms_are_exact_and_agree_with_the_provenance(corpus):
    for name, block, provenance in _standard_cases(corpus):
        dilated = dilate(block)
        standard, walk = minimal_compress(provenance)
        assert dilated.kappa == standard.kappa == walk.spanning_rank, name
        assert np.array_equal(dilated.layout, standard.layout), name
        for triple in (dilated, standard):
            assert all(np.isin(rp, (0.0, 1.0)).all() for rp in triple.reps), name
            report = verify_dilation(block, triple)
            assert report.max_structural() == 0.0, name
            assert certifies(report, block.coefficient_scale()), name
        assert _entry_distance(dilated, standard) <= 1e-12, name
        # a 1e-15 perturbation of V keeps the layout and moves the standard form by round-off
        shifted, _ = minimal_compress(replace(provenance, V=tuple(vj + 1e-15 for vj in provenance.V)))
        assert np.array_equal(shifted.layout, standard.layout), name
        assert _entry_distance(shifted, standard) <= 1e-12, name


def test_verify_measures_the_laws_only_off_the_standard_form(corpus, monkeypatch):
    calls = []

    def counted(algebra, reps):
        calls.append(len(reps))
        return law_residuals(algebra, reps)

    monkeypatch.setattr(stinespring, "law_residuals", counted)
    monkeypatch.setattr(stinespring, "_VERIFIED", weakref.WeakKeyDictionary())  # no report from earlier tests
    cases = [(e.block_map, e.triple) for e in corpus[::9] if e.triple.kappa > 1]
    for block, generated in cases + [random_icp(Algebra([3]), 4, 1, 2, seed=0)]:
        triple = dilate(block)  # its verify_dilation call reads is_standard, not the laws
        assert triple.is_standard() and calls == []
        assert verify_dilation(block, triple).max_structural() == 0.0 and calls == []
        for general in (generated, _haar_conjugate(triple, 6)):
            assert not general.is_standard()
            report = verify_dilation(block, general)
            assert calls == [triple.m], calls
            assert 0.0 < report.max_structural() <= 1e-12  # round-off of the rotated images
            calls.clear()


def test_standard_shortcut_reports_the_bits_of_the_law_pass(corpus, monkeypatch):
    # the exact images meet every law exactly, so taking them as 0.0 changes no report
    for name, block, _ in _standard_cases(corpus)[::3]:
        triple = dilate(block)
        fast = verify_dilation(block, triple)
        monkeypatch.setattr(stinespring, "_VERIFIED", weakref.WeakKeyDictionary())
        monkeypatch.setattr(DilationTriple, "is_standard", lambda self: False)
        assert verify_dilation(block, triple) == fast, name
        monkeypatch.undo()


def test_a_moved_image_entry_leaves_the_standard_form():
    block, _ = random_icp(Algebra([2, 1]), 3, 1, 2, seed=4)
    triple = dilate(block)
    rng = np.random.default_rng(4)
    for _ in range(5):
        reps = [rp.copy() for rp in triple.reps]
        p = int(rng.integers(len(reps)))
        reps[p][tuple(int(rng.integers(s)) for s in reps[p].shape)] += 1e-9
        moved = replace(triple, reps=tuple(reps))
        assert not moved.is_standard()
        laws = law_residuals(moved.algebra, moved.reps)
        assert max(laws["multiplicativity"], laws["star"]) >= 1e-10, laws
        report = verify_dilation(block, moved)
        assert (report.multiplicativity, report.star) == (laws["multiplicativity"], laws["star"])


def test_certified_dilate_forms_no_gram(corpus, monkeypatch):
    def forbidden(phi):
        raise AssertionError("build_gram called")

    monkeypatch.setattr(gram, "build_gram", forbidden)
    for name, block, _ in _standard_cases(corpus):
        assert verify_dilation(block, dilate(block)).reconstruction <= 1e-8 * (1.0 + block.coefficient_scale()), name


def test_echelon_floor_sees_a_negative_eigenvalue_behind_rejected_pivots(corpus):
    # both pivots are positive and below the cut, so the walk keeps nothing, yet the
    # block's lowest eigenvalue is 1e-12 - 5e-9: the floor bounds it from below
    x = np.array([[1e-12, 5e-9], [5e-9, 1e-12]], dtype=np.complex128)
    q, rows, kept, rejected, floor = stinespring._echelon(x, 1e-10, gram=True)
    assert rows.shape == (0, 2) and kept == [] and rejected == 1e-12
    assert floor <= np.linalg.eigvalsh(x)[0] < -4e-9
    # on the corpus, a floor of the anchor blocks of a CP map is round-off of their scale
    for entry in corpus[::7]:
        for _, _, g in stinespring.anchor_grams(entry.block_map):
            floor = stinespring._echelon(g, 1e-10 * g.diagonal().real.max(), gram=True)[4]
            assert -1e-13 * g.diagonal().real.max() <= floor <= np.linalg.eigvalsh((g + g.conj().T) / 2)[0], entry.name


def test_walk_reports_the_margins_of_its_cut(corpus):
    entry = next(e for e in corpus if e.k == 3 and e.n == 1 and e.d == 2)
    triple = dilate(entry.block_map)
    _, walk = minimal_compress(triple)
    assert set(walk.to_dict()) == {"spanning_rank", "kappa", "is_minimal", "smallest_kept", "largest_rejected"}
    assert walk.smallest_kept > 1e-3 and walk.largest_rejected <= 1e-13
    # margins are pivots over the largest anchor norm: a Haar conjugate reads them to round-off
    again = minimal_compress(_haar_conjugate(triple, 4))[1]
    assert again.spanning_rank == walk.spanning_rank and again.is_minimal
    assert again.smallest_kept == pytest.approx(walk.smallest_kept, rel=1e-9)
    # the cut compares squared pivots with rank_tol: just above the smallest, that pivot goes
    cut, dropped = minimal_compress(triple, rank_tol=1.0001 * walk.smallest_kept**2)
    assert not dropped.is_minimal and cut.kappa < triple.kappa
    assert dropped.largest_rejected == pytest.approx(walk.smallest_kept, rel=1e-9)


def test_haar_conjugate_in_the_general_form_standardizes_back(corpus):
    for entry in corpus[::5]:
        triple = dilate(entry.block_map)
        conjugate = _haar_conjugate(triple, 5)
        data = json.loads(serialize.dumps(serialize.triple_to_json(conjugate)))
        assert "reps" in data and "layout" not in data, entry.name
        read = serialize.triple_from_json(data)
        again, walk = minimal_compress(read)
        assert walk.is_minimal and np.array_equal(again.layout, triple.layout), entry.name
        assert _entry_distance(again, triple) <= 1e-12, entry.name
        eq = unitary_equivalence(triple, read)
        assert eq.within() and eq.v_match <= 1e-12, entry.name


def test_equivalence_fails_on_a_changed_multiplicity_or_v_column():
    block, _ = random_icp(Algebra([1, 1]), 3, 1, 2, seed=5)
    triple = dilate(block)
    assert triple.layout.ravel().tolist() == [0, 1, 0, 2]
    # one column of one V changed: same layout, other V
    v0 = triple.V[0].copy()
    v0[:, 1] *= -1.0
    eq = unitary_equivalence(triple, replace(triple, V=(v0,)))
    assert not eq.within() and eq.v_match > 1e-3 and eq.isometry == eq.intertwining == 0.0
    # one multiplicity moved to another block tuple (legs of size 1): same kappa, other layout
    layout = np.array([[1, 0], [0, 2]])
    moved = replace(triple, layout=layout, reps=stinespring.standard_images(triple.algebra, layout))
    with pytest.raises(ValueError, match="layout mismatch"):
        unitary_equivalence(triple, moved)


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


def _stacked_coeffs(block):
    """The grid as one tensor (d,)*k + (n*h, n*h): entry (i*h+u, j*h+v) of a slice is phi_ij's coefficient (u, v)."""
    h = block.h
    out = np.empty(block.entries[0][0].coeffs.shape[:-2] + (block.n * h,) * 2, dtype=np.complex128)
    for i, j in np.ndindex(block.n, block.n):
        out[..., i * h : (i + 1) * h, j * h : (j + 1) * h] = block.entries[i][j].coeffs
    return out


def test_reconstruction_residual_in_chunks_is_the_whole_stack_maximum(corpus, monkeypatch):
    cases = [(e.block_map, e.triple) for e in corpus[::7]]
    cases.append(random_icp(Algebra([1, 2]), 5, 2, 1, seed=3))
    for block, triple in cases:
        vals = theorem_form_values(block.algebra, triple.reps, triple.V, block.k)
        vals[-1].flat[-1] += 1.0  # the largest residual in the last chunk
        whole = stinespring._batched_opnorm_max(vals - _stacked_coeffs(block))
        assert stinespring._reconstruction_residual(block, vals) == whole
        monkeypatch.setattr(stinespring, "RECONSTRUCTION_CHUNK_BYTES", 1)  # one basis tuple per chunk
        assert stinespring._reconstruction_residual(block, vals) == whole
        monkeypatch.undo()
        assert stinespring._batched_opnorm_max(vals - _stacked_coeffs(block), 2.0 * whole + 1.0) == 2.0 * whole + 1.0


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
