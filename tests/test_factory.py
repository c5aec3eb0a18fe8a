import numpy as np
import pytest

from icpmaps import factory, serialize
from icpmaps.algebra import Algebra
from icpmaps.blockmap import as_block_map
from icpmaps.errors import SpecFormatError
from icpmaps.factory import (
    canonical_representation,
    commutation_residual,
    from_dilation_data,
    from_generator_spec,
    noninvariant_block_example,
    point_evaluation_example,
    random_icp,
    random_representation,
    representation_residuals,
    schur_block_map,
    tensor_commuting_reps,
    trace_example,
)
from icpmaps.gram import build_gram, gram_is_psd, positivity_falsify
from icpmaps.multimap import MultilinearMap
from icpmaps.stinespring import dilate, verify_dilation
from icpmaps.tolerances import REP_TOL


def test_from_dilation_data_recovers_point_evaluation():
    alg = Algebra([1, 1])
    ev1 = np.array([[[1.0 + 0j]], [[0.0 + 0j]]])  # evaluation at the marked point
    reps = tensor_commuting_reps([(alg, ev1), (alg, ev1)])
    v = [np.array([[1.0 + 0j]])]
    block = from_dilation_data(alg, reps, v, k=3)
    assert block.n == 1
    assert np.array_equal(block.entries[0][0].coeffs, point_evaluation_example(2).coeffs)


def test_from_dilation_data_k1_classical_form(rng):
    alg = Algebra([2])
    rep = random_representation(alg, rng, max_mult=2)
    kappa = rep.shape[1]
    v = [rng.standard_normal((kappa, 2)) + 1j * rng.standard_normal((kappa, 2))]
    block = from_dilation_data(alg, [rep], v, k=1)
    for b in range(alg.dim):
        expected = v[0].conj().T @ rep[b] @ v[0]
        assert np.allclose(block.entries[0][0].coeffs[b], expected, atol=1e-13)


def test_zero_v_gives_zero_map():
    alg = Algebra([1, 1])
    ev1 = np.array([[[1.0 + 0j]], [[0.0 + 0j]]])
    reps = tensor_commuting_reps([(alg, ev1), (alg, ev1)])
    block = from_dilation_data(alg, reps, [np.zeros((1, 1), dtype=complex)], k=3)
    assert np.abs(block.entries[0][0].coeffs).max() == 0.0


def test_noncommuting_reps_rejected():
    alg = Algebra([2])
    identity_rep = canonical_representation(alg, [1])
    with pytest.raises(ValueError, match="commute"):
        from_dilation_data(alg, [identity_rep, identity_rep], [np.eye(2, dtype=complex)], k=3)


def test_shape_mismatch_rejected(rng):
    alg = Algebra([1, 1])
    ev1 = np.array([[[1.0 + 0j]], [[0.0 + 0j]]])
    reps = tensor_commuting_reps([(alg, ev1), (alg, ev1)])
    with pytest.raises(ValueError):
        from_dilation_data(alg, reps, [np.ones((3, 1), dtype=complex)], k=3)
    with pytest.raises(ValueError):
        from_dilation_data(alg, reps[:1], [np.ones((1, 1), dtype=complex)], k=3)


def test_tensor_reps_commute_exactly(rng):
    alg = Algebra([2])
    identity_rep = canonical_representation(alg, [1])
    reps = tensor_commuting_reps([(alg, identity_rep), (alg, identity_rep)])
    assert commutation_residual(reps) == 0.0
    for images in reps:
        res = representation_residuals(alg, images)
        assert max(res.values()) <= 1e-14


def test_tensor_reps_commutative_coordinate_projections():
    alg = Algebra([1, 1, 1])
    proj = canonical_representation(alg, [1, 1, 0])
    reps = tensor_commuting_reps([(alg, proj), (alg, proj)])
    assert commutation_residual(reps) == 0.0


def test_conjugated_representation_still_valid(rng):
    alg = Algebra([2, 1])
    rep = random_representation(alg, rng)
    res = representation_residuals(alg, rep)
    assert max(res.values()) <= 1e-12


def test_trace_example_values():
    phi = trace_example(2)
    assert np.allclose(phi.unit_value(), np.eye(2), atol=1e-15)
    alg = phi.algebra
    e11 = alg.basis_element(alg.basis_index(0, 0, 0))
    assert np.allclose(phi.evaluate([e11] * 3), 0.25 * np.eye(2), atol=1e-15)
    assert phi.is_invariant()


def test_point_evaluation_level2_entry():
    from icpmaps.factory import worked_level2_tuple
    from icpmaps.multimap import amplified_evaluate

    phi = point_evaluation_example(2)
    value = amplified_evaluate(phi, 2, worked_level2_tuple())
    assert value[0, 0] == -1.0
    assert phi.is_invariant()


def test_point_evaluation_family_sizes():
    for dim in (2, 3):
        phi = point_evaluation_example(dim)
        assert phi.algebra.dim == dim
        assert phi.is_invariant()
        assert phi.unit_value()[0, 0] == 1.0


def test_noninvariant_block_fixture_properties():
    block = noninvariant_block_example()
    assert np.allclose(block.entries[0][0].unit_value(), np.eye(2), atol=1e-15)
    assert all(all(row) for row in block.entries_invariant())
    assert not block.block_is_invariant()


def test_schur_identity_multiplier_is_cp():
    block = schur_block_map(np.eye(2))
    ok, _ = gram_is_psd(build_gram(block))
    assert ok
    triple = dilate(block)
    assert verify_dilation(block, triple).reconstruction <= 1e-12


def test_schur_cp_iff_psd_seeded():
    rng = np.random.default_rng(0)
    for trial in range(20):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lam = z @ z.conj().T if trial % 2 == 0 else z + z.conj().T
        lam_psd = bool(np.linalg.eigvalsh(lam).min() >= -1e-12)
        block = schur_block_map(lam)
        gram_psd, _ = gram_is_psd(build_gram(block))
        assert gram_psd == lam_psd
        # independent Choi-matrix oracle for the k=1 linear map on M_n
        n = 2
        choi = np.zeros((n * n, n * n), dtype=complex)
        for u in range(n):
            for v in range(n):
                e_uv = np.zeros((n, n), dtype=complex)
                e_uv[u, v] = 1.0
                choi[u * n : (u + 1) * n, v * n : (v + 1) * n] = lam * e_uv
        choi_psd = bool(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() >= -1e-10)
        assert choi_psd == lam_psd == gram_psd


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_theorem_form_matches_explicit_products(k, rng):
    """Entry values against the sandwich formula written out by hand:
    odd arity pairs slot m-p with slot m+p-2 inside factor p (0-based),
    even arity pairs slot m-p with slot m+p-1."""
    alg = Algebra([1, 1])
    block, triple = random_icp(alg, k, 2, 2, seed=31 + k)
    m = (k + 1) // 2
    reps, v_ops = triple.reps, triple.V
    d = alg.dim
    for _ in range(20):
        idx = rng.integers(d, size=k)
        op = np.eye(triple.kappa, dtype=complex)
        if k % 2 == 1:
            op = op @ reps[0][idx[m - 1]]
            for p in range(2, m + 1):
                op = op @ (reps[p - 1][idx[m - p]] @ reps[p - 1][idx[m + p - 2]])
        else:
            for p in range(1, m + 1):
                op = op @ (reps[p - 1][idx[m - p]] @ reps[p - 1][idx[m + p - 1]])
        for i in range(2):
            for j in range(2):
                expected = v_ops[i].conj().T @ op @ v_ops[j]
                stored = block.entries[i][j].coeffs[tuple(idx)]
                assert np.abs(stored - expected).max() <= 1e-12


# (blocks, k, n, h) of the five map specs of perfbench/workloads.py, and of k5
GENERATED_SPECS = [
    ((2,), 4, 2, 2),
    ((2,), 3, 2, 2),
    ((2, 2), 3, 2, 2),
    ((2,), 5, 1, 2),
    ((3,), 4, 1, 2),
]
K5 = ((3,), 5, 2, 1)


def test_random_icp_outputs_are_well_formed(small_corpus, corpus):
    for entry in small_corpus[:6]:
        block = entry.block_map
        assert all(all(row) for row in block.entries_invariant()), entry.name
        assert block.block_is_symmetric(), entry.name
        ok, _ = gram_is_psd(build_gram(block))
        assert ok, entry.name
    # the generator checks neither property of its maps, which hold by
    # construction: every corpus map and every benchmark spec is asserted here
    maps = [(entry.name, entry.block_map) for entry in corpus]
    for (blocks, k, n, h), seed in [(spec, seed) for spec in GENERATED_SPECS for seed in range(4)] + [(K5, 0)]:
        maps.append(((blocks, k, n, h, seed), random_icp(Algebra(list(blocks)), k, n, h, seed=seed)[0]))
    for name, block in maps:
        assert all(all(row) for row in block.entries_invariant()), name
        assert block.block_is_symmetric(), name


@pytest.mark.parametrize("n", [1, 2])
def test_loading_a_generated_spec_checks_neither_invariance_nor_symmetry(monkeypatch, n):
    calls = []

    def counting(name):
        method = getattr(MultilinearMap, name)

        def counted(*args):
            calls.append(name)
            return method(*args)

        return counted

    for name in ("_gather_pass", "adjoint_deviation"):
        monkeypatch.setattr(MultilinearMap, name, counting(name))
    spec = {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 3, "n": n, "h": 2, "seed": 0}
    block = as_block_map(serialize.load_map_spec(spec))
    assert block.n == n and calls == []
    # the passes are the ones `check` runs: they still hold, and are counted
    assert all(all(row) for row in block.entries_invariant()) and block.block_is_symmetric()
    assert calls.count("_gather_pass") == n * n
    assert calls.count("adjoint_deviation") == n * (n + 1) // 2


def test_random_icp_tensor_reps_pass_the_checks_it_skips(corpus):
    # random_icp builds its map without from_dilation_data's law and
    # commutation checks on the tensor representations: they would pass
    for entry in corpus:
        reps = entry.triple.reps
        for images in reps:
            assert max(representation_residuals(entry.triple.algebra, images).values()) <= REP_TOL, entry.name
        assert commutation_residual(reps) <= REP_TOL, entry.name


def test_random_icp_validates_only_the_factors(monkeypatch):
    shapes = []
    validate = factory.validate_representation

    def counted(algebra, images):
        shapes.append(images.shape[1])
        return validate(algebra, images)

    monkeypatch.setattr(factory, "validate_representation", counted)
    _, triple = random_icp(Algebra([2]), 5, 1, 2, seed=0)
    # one check per factor of the m = 3 legs, none at the tensor size kappa
    assert len(shapes) == 3 and triple.kappa not in shapes
    assert int(np.prod(shapes)) == triple.kappa


def test_random_icp_determinism():
    alg = Algebra([1, 1])
    a, _ = random_icp(alg, 3, 2, 1, seed=5)
    b, _ = random_icp(alg, 3, 2, 1, seed=5)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(a.entries[i][j].coeffs, b.entries[i][j].coeffs)


def test_random_icp_degenerate_k1_n1():
    alg = Algebra([1, 1])
    block, triple = random_icp(alg, 1, 1, 1, seed=2)
    assert block.k == 1 and block.n == 1
    ok, _ = gram_is_psd(build_gram(block))
    assert ok
    assert verify_dilation(block, dilate(block)).reconstruction <= 1e-10


def test_falsifier_silent_on_fresh_instance():
    alg = Algebra([2])
    block, _ = random_icp(alg, 2, 2, 1, seed=17)
    assert positivity_falsify(block, levels=(1, 2, 3), trials=40, seed=0) is None


def test_generator_specs_build():
    assert from_generator_spec({"kind": "trace", "n": 3}).h == 3
    assert from_generator_spec({"kind": "eval", "dim": 3, "point": 1}).algebra.dim == 3
    psi = from_generator_spec({"kind": "psi"})
    assert psi.n == 2
    lam_json = [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]
    assert from_generator_spec({"kind": "schur", "lam": lam_json}).n == 2
    dil = from_generator_spec(
        {"kind": "dilation", "algebra": {"blocks": [1, 1]}, "k": 2, "n": 2, "h": 1, "seed": 3}
    )
    assert dil.k == 2
    with pytest.raises(SpecFormatError):
        from_generator_spec({"kind": "nope"})
    with pytest.raises(SpecFormatError):
        from_generator_spec({"kind": "dilation"})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", None, "field 'seed' is not an integer: None"),
        ("seed", "x", "field 'seed' is not an integer"),
        ("seed", -1, "field 'seed' must be >= 0, got -1"),
        ("algebra", {"blocks": "22"}, "'blocks' must be a non-empty list of positive integers"),
        ("algebra", {"blocks": [2.5]}, "'blocks' must be a non-empty list of positive integers"),
        ("algebra", {"blocks": [True]}, "'blocks' must be a non-empty list of positive integers"),
        ("algebra", [2], "algebra spec must be an object"),
    ],
)
def test_dilation_spec_validates_seed_and_algebra(field, value, message):
    # the seed was read with a bare int() and the blocks went straight to
    # Algebra, which read "22" as M_2 + M_2, 2.5 as 2 and true as 1
    spec = {"kind": "dilation", "algebra": {"blocks": [2]}, "k": 3, "n": 1, "h": 1, "seed": 0, field: value}
    with pytest.raises(SpecFormatError, match=message):
        from_generator_spec(spec)
