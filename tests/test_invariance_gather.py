"""The invariance gather against a loop over every basis assignment.

On a basis assignment each side of the migration identity is one
coefficient block or zero, and ``invariance_report`` gathers the rhs at
every assignment where the lhs is a nonzero block.  The oracle below
evaluates both sides at every assignment with explicit products, so the
deviations must agree exactly, and the assignments with a nonzero lhs must
add up to ``tuples_checked``.
"""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from icpmaps import cli
from icpmaps.algebra import Algebra, multiply
from icpmaps.blockmap import BlockMultilinearMap
from icpmaps.factory import random_icp
from icpmaps.multimap import MultilinearMap
from test_chain_kernel import random_grid

ORACLE_ASSIGNMENTS = 5000


def _oracle(phi):
    """(max deviation, assignments with a nonzero lhs) over every basis
    assignment of the a's and the migrating c's."""
    alg, k = phi.algebra, phi.k
    n_c = k // 2
    units = [alg.basis_element(p) for p in range(alg.dim)]
    worst, nonzero_lhs = 0.0, 0
    for a_idx in itertools.product(range(alg.dim), repeat=k):
        a = [units[p] for p in a_idx]
        for c_idx in itertools.product(range(alg.dim), repeat=n_c):
            c = [units[q] for q in c_idx]
            lhs = phi.evaluate([multiply(a[l], c[l]) for l in range(n_c)] + a[n_c:])
            rhs = phi.evaluate(a[: k - n_c] + [multiply(c[k - 1 - s], a[s]) for s in range(k - n_c, k)])
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            nonzero_lhs += int(lhs.any())
    return worst, nonzero_lhs


def _cases():
    for blocks in ([1, 1], [2], [2, 1], [3]):
        dim = sum(b * b for b in blocks)
        for k in range(1, 6):
            if dim ** (k + k // 2) <= ORACLE_ASSIGNMENTS:
                for kind in ("dense", "sparse", "icp"):
                    name = "+".join(f"M{b}" for b in blocks)
                    yield pytest.param(blocks, 1, k, kind, id=f"{name}-k{k}-{kind}")
    # induced maps of n = 2 grids over M_2(A)
    for blocks, k in (([1, 1], 2), ([1, 1], 3), ([2], 2)):
        assert (4 * sum(b * b for b in blocks)) ** (k + k // 2) <= ORACLE_ASSIGNMENTS
        for kind in ("dense", "icp"):
            name = "+".join(f"M{b}" for b in blocks)
            yield pytest.param(blocks, 2, k, kind, id=f"{name}-n2-k{k}-{kind}")


def _map(blocks, n, k, kind):
    alg = Algebra(blocks)
    if kind == "icp":
        block, _ = random_icp(alg, k, n, 2, seed=3)
        return block.induced_map() if n > 1 else block.entries[0][0]
    if n > 1:
        return random_grid(alg, n, k, 2, np.random.default_rng([n, k, alg.dim])).induced_map()
    rng = np.random.default_rng([k, alg.dim])
    shape = (alg.dim,) * k + (2, 2)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "sparse":
        coeffs *= (rng.random(shape[:k]) < 0.05)[..., None, None]
    return MultilinearMap(alg, k, 2, coeffs)


@pytest.mark.parametrize("blocks,n,k,kind", _cases())
def test_gather_matches_full_loop_oracle(blocks, n, k, kind):
    phi = _map(blocks, n, k, kind)
    report = phi.invariance_report()
    worst, nonzero_lhs = _oracle(phi)
    assert report["exhaustive"]
    assert report["max_deviation"] == worst
    assert report["tuples_checked"] == (nonzero_lhs if k >= 2 else 0)
    assert report["invariant"] == (worst <= report["tolerance"])
    if kind == "icp" and (n == 1 or k <= 2):
        assert report["invariant"]
    if kind == "dense" and k >= 2:
        assert not report["invariant"]


def test_gather_flags_the_bad_map():
    bad = np.zeros((2, 2, 2, 1, 1), dtype=complex)
    bad[0, 0, 1] = 1.0  # a_1 b_1 c_2 is not invariant
    phi = MultilinearMap(Algebra([1, 1]), 3, 1, bad)
    report = phi.invariance_report()
    assert report["max_deviation"] == _oracle(phi)[0] == 1.0
    assert report["exhaustive"] and not report["invariant"]
    assert report["tuples_checked"] == 1


@pytest.fixture(scope="module")
def grid4():
    """The shape of the block-n2 benchmark's `check` map: M_2, k = 4, n = 2, h = 2."""
    block, _ = random_icp(Algebra([2]), 4, 2, 2, seed=0)
    return block


def test_grid4_block_check_is_exhaustive_without_sampling(grid4):
    n_c, block_size = 2, 2  # M_2 is one block; each unit factors 2 ways
    support = sum(int(phi.coeffs.reshape(4**4, -1).any(axis=1).sum()) for row in grid4.entries for phi in row)
    report = grid4.block_invariance_report()
    assert report["exhaustive"]
    assert report["tuples_checked"] == support * block_size**n_c
    assert report["max_deviation"] > report["tolerance"]  # no nonzero n = 2, k = 4 grid passes
    for row in grid4.entries:
        for phi in row:
            entry = phi.invariance_report()
            assert entry["exhaustive"] and entry["invariant"]


def test_gather_memory_stays_below_the_coefficient_tensor(grid4):
    induced = grid4.induced_map()
    induced.invariance_report(tol=1e-9)  # builds the algebra's lazy unit tables
    # a map of its own, whose gather is not cached yet; an explicit tolerance
    # leaves out coefficient_scale, which is not the gather
    fresh = MultilinearMap(induced.algebra, induced.k, induced.h, induced.coeffs)
    tracemalloc.start()
    try:
        fresh.invariance_report(tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < induced.coeffs.nbytes / 4, (peak, induced.coeffs.nbytes)


def test_coefficient_scale_memory_stays_below_the_coefficient_tensor(grid4):
    induced = grid4.induced_map()
    flat = induced.coeffs.reshape(-1, induced.h, induced.h)
    reference = float(np.sqrt((np.abs(flat) ** 2).sum(axis=(1, 2)).max()))
    tracemalloc.start()
    try:
        scale = induced.coefficient_scale()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scale == reference
    assert peak < induced.coeffs.nbytes / 16, (peak, induced.coeffs.nbytes)


def test_check_gathers_each_entry_once(monkeypatch, tmp_path, capsys):
    """`check --invariant` on a generated grid gathers each entry once and
    makes one symmetry pass: the load checks neither property, and the block
    report, the entry flags and the symmetry verdict share those passes."""
    spec = str(tmp_path / "grid4.json")
    assert cli.main(["gen", "dilation", "--algebra", "2", "--k", "4", "--n", "2", "--h", "2", "--out", spec]) == 0
    gathers, symmetry = [], []
    gather = MultilinearMap._gather_pass

    def counted_gather(self, flat, support):
        gathers.append(self.k)
        return gather(self, flat, support)

    cached = BlockMultilinearMap.__dict__["_symmetry_deviation"]
    deviation = cached.func

    def counted_symmetry(self):
        symmetry.append(self.n)
        return deviation(self)

    monkeypatch.setattr(MultilinearMap, "_gather_pass", counted_gather)
    monkeypatch.setattr(cached, "func", counted_symmetry)
    capsys.readouterr()
    assert cli.main(["check", spec, "--invariant"]) == 0
    report = json.loads(capsys.readouterr().out)["checks"]["invariant"]
    assert report["block"]["exhaustive"] and report["grid_symmetric"]
    assert len(gathers) == 4 and len(symmetry) == 1
