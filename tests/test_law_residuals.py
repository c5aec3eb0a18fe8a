"""The all-pairs product kernel and the representation-law residuals built
on it, against their einsum definitions."""

import itertools

import numpy as np
import pytest

from icpmaps import stinespring
from icpmaps.algebra import Algebra
from icpmaps.factory import (
    canonical_representation,
    commutation_residual,
    haar_unitary,
    random_icp,
    random_representation,
    representation_residuals,
    tensor_commuting_reps,
    validate_representation,
)
from icpmaps.stinespring import (
    DilationTriple,
    dilate,
    law_residuals,
    minimal_compress,
    pair_products,
    standard_images,
    verify_dilation,
)
from icpmaps.tolerances import REP_TOL

ALGEBRAS = [[2], [1, 1], [3], [2, 1]]


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _opnorm_max(mats):
    flat = mats.reshape(-1, mats.shape[-2], mats.shape[-1])
    return max(float(np.linalg.norm(x, 2)) for x in flat)


def _oracle_laws(algebra, reps):
    """The structural loop as it reads in the definitions: einsum products,
    one spectral norm per basis element or pair."""
    out = dict.fromkeys(("multiplicativity", "star", "unitality", "commutation"), 0.0)
    for p, rp in enumerate(reps):
        prod = np.einsum("aij,bjk->abik", rp, rp)
        expected = np.einsum("abr,rij->abij", algebra.mult_table, rp)
        out["multiplicativity"] = max(out["multiplicativity"], _opnorm_max(prod - expected))
        adjoint = rp.conj().transpose(0, 2, 1)
        out["star"] = max(out["star"], _opnorm_max(rp[algebra.star_perm] - adjoint))
        unit = np.einsum("r,rij->ij", algebra.identity_coords, rp)
        out["unitality"] = max(out["unitality"], _opnorm_max(unit - np.eye(rp.shape[1])))
        for rq in reps[p + 1 :]:
            xy = np.einsum("aij,bjk->abik", rp, rq)
            yx = np.einsum("bij,ajk->abik", rq, rp)
            out["commutation"] = max(out["commutation"], _opnorm_max(xy - yx))
    return out


def _close(got, expected, scale):
    return abs(got - expected) <= 1e-12 * max(abs(expected), scale)


PAIR_SHAPES = [((3, 4, 5), (2, 5, 6)), ((1, 2, 2), (4, 2, 2)), ((9, 6, 6), (9, 6, 6)), "real"]


@pytest.mark.parametrize("shapes", PAIR_SHAPES)
def test_pair_products_matches_einsum(shapes):
    if shapes == "real":  # complex stacks with no imaginary part: 0/1 standard images, a real Gaussian stack
        x = standard_images(Algebra([2, 1]), np.array([[1, 2], [0, 1]]))[0]
        y = np.random.default_rng(5).standard_normal((3, x.shape[2], 4)).astype(np.complex128)
    else:
        rng = np.random.default_rng(shapes[0][0])
        x, y = _gaussian(rng, *shapes[0]), _gaussian(rng, *shapes[1])
    expected = np.einsum("aij,bjk->abik", x, y)
    got = pair_products(x, y)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("blocks", ALGEBRAS)
def test_law_residuals_match_einsum_on_generic_stacks(blocks):
    # neither multiplicative, self-adjoint, unital nor commuting: every law is off
    alg = Algebra(blocks)
    rng = np.random.default_rng(alg.dim)
    reps = [_gaussian(rng, alg.dim, 4, 4) for _ in range(3)]
    expected = _oracle_laws(alg, reps)
    got = law_residuals(alg, reps)
    assert list(got) == list(expected)
    for name, value in expected.items():
        assert value > 0.1, name
        assert abs(got[name] - value) <= 1e-12 * value, name
    single = representation_residuals(alg, reps[0])
    assert set(single) == {"multiplicativity", "star", "unitality"}
    for name, value in _oracle_laws(alg, reps[:1]).items():
        if name in single:
            assert abs(single[name] - value) <= 1e-12 * value, name
    comm = expected["commutation"]
    assert abs(commutation_residual(reps) - comm) <= 1e-12 * comm


@pytest.mark.parametrize("blocks", ALGEBRAS)
def test_law_residuals_match_einsum_on_representations(blocks):
    alg = Algebra(blocks)
    rng = np.random.default_rng(10 + alg.dim)
    rep = random_representation(alg, rng, max_mult=2)
    u = haar_unitary(rep.shape[1], rng)
    # a unitary conjugate: a representation on the same space that need not commute with rep
    families = [
        tensor_commuting_reps([(alg, rep), (alg, random_representation(alg, rng))]),
        [rep, u @ rep @ u.conj().T],
    ]
    for reps in families:
        got = law_residuals(alg, reps)
        expected = _oracle_laws(alg, reps)
        for name in ("multiplicativity", "star", "unitality"):
            assert got[name] <= 1e-13 and _close(got[name], expected[name], 1.0), name
        assert _close(got["commutation"], expected["commutation"], 1.0)
    assert law_residuals(alg, families[0])["commutation"] <= 1e-13


def test_residuals_and_product_tensor_use_no_einsum(monkeypatch):
    block, triple = random_icp(Algebra([2]), 4, 2, 1, seed=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", forbidden)
    report = verify_dilation(block, triple)
    assert report.reconstruction <= 1e-12 and report.max_structural() <= 1e-12
    assert max(representation_residuals(triple.algebra, triple.reps[0]).values()) <= 1e-12
    assert commutation_residual(triple.reps) <= 1e-12


def test_perturbed_representation_is_rejected():
    alg = Algebra([2, 1])
    images = random_representation(alg, np.random.default_rng(7))
    validate_representation(alg, images)
    bent = images.copy()
    bent[0] += 1e-8 * _gaussian(np.random.default_rng(8), *bent.shape[1:])
    assert representation_residuals(alg, bent)["multiplicativity"] > REP_TOL
    with pytest.raises(ValueError, match="not a unital"):
        validate_representation(alg, bent)


def test_validation_bounds_the_spectral_norm():
    # pi(1) = I + eps J on C^10: every entry of the residual is at most eps,
    # its spectral norm is 10 eps, above REP_TOL
    kappa, eps = 10, 3e-11
    images = canonical_representation(Algebra([1]), [kappa]) + eps
    res = representation_residuals(Algebra([1]), images)
    assert res["unitality"] == pytest.approx(kappa * eps, rel=1e-6)
    assert np.abs(images[0] - np.eye(kappa)).max() < REP_TOL < res["unitality"]
    with pytest.raises(ValueError, match="not a unital"):
        validate_representation(Algebra([1]), images)


def _full_svd_max(mats):
    """The unpruned maximum: one batched SVD of the whole stack."""
    flat = mats.reshape(-1, mats.shape[-2], mats.shape[-1])
    return float(np.linalg.svd(flat, compute_uv=False)[:, 0].max())


def _opnorm_stacks():
    rng = np.random.default_rng(5)
    dense = _gaussian(rng, 81, 6, 6)
    u, v = _gaussian(rng, 30, 5, 1), _gaussian(rng, 30, 1, 4)
    a = _gaussian(rng, 6, 6)
    conjugates = np.stack([q @ a @ q.conj().T for q in (haar_unitary(6, rng) for _ in range(8))])
    mixed = dense.copy()
    mixed[3] *= 1e-160
    # unit rank-one matrices: the bounds equal the spectral norms up to rounding,
    # and some SVD values land an ulp above the bound computed for their matrix
    unit_rng = np.random.default_rng(5)
    uu, vv = _gaussian(unit_rng, 50, 6, 1), _gaussian(unit_rng, 50, 1, 6)
    uu /= np.linalg.norm(uu, axis=(1, 2), keepdims=True)
    vv /= np.linalg.norm(vv, axis=(1, 2), keepdims=True)
    # a rotation's bounds exceed its norm 1 by sqrt(2); a slightly longer rank-one matrix follows it
    rotation_then_rank_one = np.array([[[1.0, 1.0], [1.0, -1.0]], [[1.0005 * np.sqrt(2), 0.0], [0.0, 0.0]]])
    rotation_then_rank_one /= np.sqrt(2)
    # squares of 1e-162 round to zero, so the ones matrix gets a zero Frobenius bound
    underflowing = np.stack([np.full((4, 4), 1e-162), np.diag([2e-162, 0.0, 0.0, 0.0])])
    return {
        "dense-square": dense,
        "dense-wide": _gaussian(rng, 40, 3, 7),
        "dense-real-2x2": rng.standard_normal((6561, 2, 2)),
        "dense-36": _gaussian(rng, 9, 36, 36),
        "dense-nested-axes": _gaussian(rng, 3, 4, 5, 5),
        "rank-one": u @ v,
        "rank-one-copies": np.repeat(u[:1] @ v[:1], 5, axis=0),
        "tied-copies": np.repeat(a[None], 7, axis=0),
        "unitary-conjugates": conjugates,
        "zero": np.zeros((9, 4, 4), dtype=np.complex128),
        "one-zero-among-many": np.concatenate([np.zeros((1, 6, 6)), dense]),
        "single": _gaussian(rng, 1, 5, 3),
        "single-2d": _gaussian(rng, 4, 4),
        "rank-one-unit-norms": uu @ vv,
        "rotation-then-rank-one": rotation_then_rank_one,
        "underflowing-bounds": underflowing,
        "tiny": 1e-160 * dense,
        "tiny-and-normal": mixed,
        "huge": 1e200 * dense,
        "empty": np.zeros((0, 3, 3)),
    }


@pytest.mark.parametrize("name", sorted(_opnorm_stacks()))
def test_pruned_opnorm_max_equals_full_svd_bit_for_bit(name):
    mats = _opnorm_stacks()[name]
    got = stinespring._batched_opnorm_max(mats)
    want = _full_svd_max(mats) if mats.size else 0.0
    assert type(got) is float
    assert got == want and np.signbit(got) == np.signbit(want)


def test_pruned_opnorm_max_keeps_nonfinite_results():
    mats = _gaussian(np.random.default_rng(6), 9, 4, 4)
    mats[4, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _full_svd_max(mats)
    with pytest.raises(np.linalg.LinAlgError):
        stinespring._batched_opnorm_max(mats)
    mats[4, 1, 2] = np.inf
    assert np.isnan(_full_svd_max(mats))
    assert np.isnan(stinespring._batched_opnorm_max(mats))


def test_pruned_law_residuals_decompose_fewer_matrices(monkeypatch):
    """On the wide benchmark shape (M_3, k = 4, kappa 36) the laws read the
    same bits as with one SVD per matrix, from fewer decompositions."""
    alg = Algebra([3])
    block, generated = random_icp(alg, 4, 1, 2, seed=0)
    minimal, _ = minimal_compress(dilate(block))
    decomposed = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        decomposed.append(len(a) if a.ndim == 3 else 1)
        return real_svd(a, *args, **kwargs)

    for reps in (generated.reps, minimal.reps):
        assert reps[0].shape == (9, 36, 36)
        monkeypatch.setattr(stinespring, "_batched_opnorm_max", _full_svd_max)
        want = law_residuals(alg, reps)
        monkeypatch.undo()
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        decomposed.clear()
        got = law_residuals(alg, reps)
        monkeypatch.undo()
        assert got == want
        if reps is minimal.reps:
            # the standard form's exact images meet every law exactly: nothing to decompose
            assert set(got.values()) == {0.0} and decomposed == [], decomposed
            continue
        stack_sizes = 2 * (81 + 9 + 1) + 81  # per factor: products, adjoints, unit; then the commuting pair
        assert 0 < sum(decomposed) < stack_sizes // 2, decomposed  # 39 when written


def _seeded_layouts():
    """Layouts over m = 1..3 on M_2, M_3, M_2 + C and C^3: multiplicities 0..2
    with one tuple nonzero, so other tuples may be empty, and one all-zero layout per shape."""
    rng = np.random.default_rng(29)
    for blocks, m in itertools.product(([2], [3], [2, 1], [1, 1, 1]), (1, 2, 3)):
        shape = (len(blocks),) * m
        yield blocks, np.zeros(shape, dtype=np.intp)
        for _ in range(2):
            layout = rng.integers(0, 3, size=shape)
            layout.flat[rng.integers(layout.size)] = rng.integers(1, 3)
            yield blocks, layout


@pytest.mark.parametrize("blocks, layout", list(_seeded_layouts()))
def test_standard_images_meet_every_law_exactly(blocks, layout):
    # what verify_dilation takes for 0.0 on a standard form without forming a product
    alg = Algebra(blocks)
    images = standard_images(alg, layout)
    assert len(images) == layout.ndim
    assert law_residuals(alg, images) == dict.fromkeys(("multiplicativity", "star", "unitality", "commutation"), 0.0)
    kappa = images[0].shape[1]
    triple = DilationTriple(alg, 2 * layout.ndim, 1, 1, kappa, images, (np.zeros((kappa, 1)),), layout)
    assert triple.is_standard()
