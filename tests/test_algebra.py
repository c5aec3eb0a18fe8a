import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icpmaps.algebra import (
    Algebra,
    MatrixOverAlgebra,
    amplified_algebra,
    element_norm,
    is_positive_element,
    multiply,
    project_unit_ball,
    random_element,
    random_psd,
)
from icpmaps.errors import AlgebraMismatchError


@pytest.mark.parametrize("blocks", [[1, 1], [2], [2, 1], [3], [1, 1, 1, 1]])
def test_structure_constants_exact(blocks):
    Algebra(blocks).validate_structure()


@pytest.mark.parametrize("blocks", [[1], [1, 1], [2], [2, 1], [1, 3, 2], [3], [1, 1, 1, 1]])
def test_row_labels_count_rows_over_all_blocks(blocks):
    alg = Algebra(blocks)
    expected = [sum(blocks[:b]) + r for b, r, _ in map(alg.basis_label, range(alg.dim))]
    assert alg.row_labels.tolist() == expected
    assert alg.row_labels is alg.row_labels and not alg.row_labels.flags.writeable
    # e_p maps the range of the diagonal unit at its column label into that at its row label
    for p in range(alg.dim):
        b, r, c = alg.basis_label(p)
        assert alg.row_labels[alg.star_perm[p]] == sum(blocks[:b]) + c
        assert alg.unit_products[alg.basis_index(b, r, r), p] == p == alg.unit_products[p, alg.basis_index(b, c, c)]


# Corrupts one structure table of M_2 + C, then validates it.
_CORRUPT_AND_VALIDATE = """
import sys
import numpy as np
from icpmaps.algebra import Algebra
alg = Algebra([2, 1])
if sys.argv[1] == "product":
    table = alg.mult_table.copy()
    table[0, 0] = 0.0
    alg._mult_table = table
else:
    alg.star_perm = np.roll(alg.star_perm, 1)
try:
    alg.validate_structure()
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("table,message", [
    ("product", "structure constants are not associative"),
    ("star", "star is not an involution"),
])
def test_structure_validation_survives_optimized_mode(table, message):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_AND_VALIDATE, table],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == message


@pytest.mark.parametrize("value", [0.5, 1.0])
def test_structure_validation_refuses_a_table_that_is_not_one_unit_per_product(value):
    """The laws are checked on the product indices read off ``mult_table``,
    which exist only for a 0/1 table with at most one 1 per product: an entry
    of 0.5, or a second 1 beside e_0 e_0 = e_0, is refused before them."""
    alg = Algebra([2, 1])
    table = alg.mult_table.copy()
    table[0, 0, 1] = value
    alg._mult_table = table
    with pytest.raises(ValueError, match="^structure constants are not 0/1 with at most one 1 per product$"):
        alg.validate_structure()


def test_matrix_unit_products_m2():
    m2 = Algebra([2])
    e11 = m2.basis_element(m2.basis_index(0, 0, 0))
    e12 = m2.basis_element(m2.basis_index(0, 0, 1))
    e21 = m2.basis_element(m2.basis_index(0, 1, 0))
    assert multiply(e11, e11).allclose(e11, atol=0)
    # oracle: plain numpy product of the unit matrices
    direct = np.zeros((2, 2)); direct[0, 1] = 1
    direct = direct @ direct.T
    assert np.array_equal(multiply(e12, e21).blocks[0], direct)
    assert multiply(e12, e21).allclose(e11, atol=0)


def test_unit_law_random(rng):
    alg = Algebra([2, 1])
    one = alg.one()
    for _ in range(20):
        x = random_element(alg, rng)
        assert multiply(one, x).allclose(x, atol=0)
        assert multiply(x, one).allclose(x, atol=0)


def test_star_examples():
    m2 = Algebra([2])
    e12 = m2.basis_element(m2.basis_index(0, 0, 1))
    e21 = m2.basis_element(m2.basis_index(0, 1, 0))
    assert e12.star().allclose(e21, atol=0)
    assert m2.one().star().allclose(m2.one(), atol=0)


@settings(max_examples=50, deadline=None)
@given(
    re=st.floats(-5, 5, allow_nan=False),
    im=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 1000),
)
def test_star_conjugate_linear(re, im, seed):
    alg = Algebra([2, 1])
    x = random_element(alg, np.random.default_rng(seed))
    alpha = complex(re, im)
    lhs = (alpha * x).star()
    rhs = np.conj(alpha) * x.star()
    assert lhs.allclose(rhs, atol=1e-12)
    assert x.star().star().allclose(x, atol=0)


def test_element_norm_examples():
    m2 = Algebra([2])
    assert element_norm(m2.one()) == pytest.approx(1.0, abs=1e-14)
    diag = m2.element_from_blocks([np.diag([1.0, 2.0]).astype(complex)])
    assert element_norm(diag) == pytest.approx(2.0, abs=1e-14)


def test_cstar_identity_seeded():
    alg = Algebra([2, 1])
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = random_element(alg, rng)
        n2 = element_norm(x) ** 2
        nxx = element_norm(multiply(x.star(), x))
        assert abs(n2 - nxx) <= 1e-10 * max(1.0, n2)


def test_positivity_examples(rng):
    alg = Algebra([2])
    assert is_positive_element(alg.one())
    sign = alg.element_from_blocks([np.diag([1.0, -1.0]).astype(complex)])
    assert not is_positive_element(sign)
    for _ in range(25):
        y = random_element(alg, rng)
        assert is_positive_element(multiply(y.star(), y))


def test_random_psd_eigenvalues():
    alg = Algebra([2, 1])
    p = random_psd(alg, np.random.default_rng(7))
    for blk in p.blocks:
        assert np.linalg.eigvalsh(blk).min() >= -1e-12


def test_amplified_block_dims():
    assert amplified_algebra(Algebra([1, 1]), 2).algebra.block_dims == (2, 2)
    assert amplified_algebra(Algebra([2]), 3).algebra.block_dims == (6,)
    with pytest.raises(ValueError):
        amplified_algebra(Algebra([2]), 0)


def test_amplified_embedding_is_star_isomorphism():
    alg = Algebra([1, 1])
    amp = amplified_algebra(alg, 2)
    rng = np.random.default_rng(3)
    one = MatrixOverAlgebra.identity(alg, 2)
    assert element_norm(amp.embed(one) - amp.algebra.one()) <= 1e-15
    for _ in range(200):
        x = MatrixOverAlgebra(alg, rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        y = MatrixOverAlgebra(alg, rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
        prod_then_embed = amp.embed(x @ y)
        embed_then_prod = multiply(amp.embed(x), amp.embed(y))
        assert element_norm(prod_then_embed - embed_then_prod) <= 1e-12
        assert element_norm(amp.embed(x.star()) - amp.embed(x).star()) <= 1e-12


def test_embed_extract_roundtrip_exact(rng):
    alg = Algebra([2, 1])
    amp = amplified_algebra(alg, 3)
    coords = rng.standard_normal((3, 3, alg.dim)) + 1j * rng.standard_normal((3, 3, alg.dim))
    x = MatrixOverAlgebra(alg, coords)
    back = amp.extract(amp.embed(x))
    assert np.array_equal(back.coords, x.coords)


def test_project_unit_ball():
    alg = Algebra([2])
    scaled = 3.0 * alg.one()
    assert project_unit_ball(scaled).allclose(alg.one(), atol=1e-14)
    small = 0.4 * alg.one()
    assert project_unit_ball(small).allclose(small, atol=1e-14)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_element(alg, rng, scale=4.0)
        assert element_norm(project_unit_ball(x)) <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10, allow_nan=False))
def test_projection_lands_in_ball_and_is_idempotent(seed, scale):
    alg = Algebra([2, 1])
    x = random_element(alg, np.random.default_rng(seed), scale=scale)
    proj = project_unit_ball(x)
    assert element_norm(proj) <= 1.0 + 1e-12
    assert project_unit_ball(proj).allclose(proj, atol=1e-10)


def test_sampler_determinism():
    alg = Algebra([2, 1])
    a = random_element(alg, np.random.default_rng(5))
    b = random_element(alg, np.random.default_rng(5))
    assert a.allclose(b, atol=0)


def test_coords_block_roundtrip_exact(rng):
    alg = Algebra([2, 1])
    x = random_element(alg, rng)
    again = alg.element_from_coords(x.coords())
    assert x.allclose(again, atol=0)


def test_algebra_mismatch_raises():
    x = Algebra([2]).one()
    y = Algebra([1, 1]).one()
    with pytest.raises(AlgebraMismatchError):
        multiply(x, y)


def test_commutativity_flag():
    assert Algebra([1, 1, 1]).is_commutative
    assert not Algebra([2, 1]).is_commutative
