"""The block-invariance report derived from the entries and (n, k), against
the induced map over M_n(A) that it no longer forms.

For n = 1 the block map is its entry; for k <= 2 the identity over M_n(A)
is the entries' identities side by side; for n >= 2 and k >= 3 only the
zero grid is invariant, so every coefficient is a deviation.  The derived
report must give the induced map's verdict, deviation and exhaustiveness
exactly; its tolerance sums the same squares in another order.  The oracle
is itself checked at every basis tuple of M_n(A) against the entries.
"""

import tracemalloc

import numpy as np
import pytest

from icpmaps import cli
from icpmaps.algebra import Algebra
from icpmaps.blockmap import BlockMultilinearMap
from icpmaps.factory import noninvariant_block_example, random_icp
from icpmaps.multimap import MultilinearMap
from test_chain_kernel import _oracle_cases, random_grid


def _params(cases):
    return [pytest.param(*c, id=f"{'+'.join(f'M{b}' for b in c[0])}-n{c[1]}-k{c[2]}-h{c[3]}") for c in cases]


CASES = list(_oracle_cases())
# cases whose padded blocks at every basis tuple stay small
SMALL_CASES = [(b, n, k, h) for b, n, k, h in CASES if (n * n * sum(x * x for x in b)) ** k * (n * h) ** 2 <= 2 * 10**5]


def assert_matches_induced(block):
    got, want = block.block_invariance_report(), block.induced_map().invariance_report()
    for key in ("invariant", "max_deviation", "exhaustive"):
        assert got[key] == want[key], (key, got, want)
    assert abs(got["tolerance"] - want["tolerance"]) <= 1e-15 * want["tolerance"]
    entry_visits = sum(phi.invariance_report()["tuples_checked"] for row in block.entries for phi in row)
    assert got["tuples_checked"] == entry_visits
    return got


@pytest.mark.parametrize("blocks,n,k,h", _params(CASES))
def test_grid_report_equals_the_induced_maps(blocks, n, k, h):
    alg = Algebra(blocks)
    dense = random_grid(alg, n, k, h, np.random.default_rng([n, k, len(blocks), blocks[0]]))
    icp, _ = random_icp(alg, k, n, h, seed=k)
    assert_matches_induced(icp)
    if k >= 2:
        assert not assert_matches_induced(dense)["invariant"]
    else:
        assert_matches_induced(dense)


@pytest.mark.parametrize("blocks,n,k,h", _params(SMALL_CASES))
def test_blocks_read_the_induced_coefficients(blocks, n, k, h):
    """The oracle itself at every basis tuple of M_n(A), chained or not: its
    block is zero unless the tuple is chained, and then it is phi_{i_1 j_k}'s
    coefficient at block position (i_1, j_k).  The units' labels (i, j, q)
    are read through ``extract``, not through the grid's unit index."""
    block = random_grid(Algebra(blocks), n, k, h, np.random.default_rng([n, k, len(blocks), blocks[0]]))
    induced, amp = block.induced_map(), block.amplification
    labels = np.array([np.argwhere(amp.extract(induced.algebra.basis_element(p)).coords)[0]
                       for p in range(induced.algebra.dim)])
    first, last, unit = labels[np.indices((induced.algebra.dim,) * k).reshape(k, -1)].transpose(2, 0, 1)
    chained = (last[:-1] == first[1:]).all(axis=0)
    flat = np.ravel_multi_index(unit[:, chained], (block.algebra.dim,) * k)
    ends = np.stack([[phi.coeffs.reshape(-1, h, h) for phi in row] for row in block.entries])
    padded = np.zeros((len(chained), n, h, n, h), dtype=complex)
    rows = np.flatnonzero(chained)
    padded[rows, first[0, rows], :, last[-1, rows], :] = ends[first[0, rows], last[-1, rows], flat]
    assert np.array_equal(padded.reshape(induced.coeffs.shape), induced.coeffs)
    # each nonzero coefficient of phi_ij, with every chain of inner indices
    support = int(induced.coeffs.reshape(len(chained), -1).any(axis=1).sum())
    assert support == int(ends.any(axis=(3, 4)).sum()) * n ** (k - 1)


def test_noninvariant_grid_report_equals_the_induced_maps():
    report = assert_matches_induced(noninvariant_block_example())
    assert report["exhaustive"] and not report["invariant"]


def test_corpus_reports_equal_the_induced_maps(corpus):
    for entry in corpus:
        report = assert_matches_induced(entry.block_map)
        assert report["invariant"] == (entry.n == 1 or entry.k <= 2), entry.name


def test_zero_grid_is_invariant_at_n2_k3():
    alg = Algebra([2])
    zero = MultilinearMap(alg, 3, 2, np.zeros((alg.dim,) * 3 + (2, 2)))
    report = assert_matches_induced(BlockMultilinearMap.constant_grid(zero, 2))
    assert report["invariant"] and report["max_deviation"] == 0.0 and report["tuples_checked"] == 0


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_one_noninvariant_entry(k, scale):
    """At k = 4 the deviation is the larger of the bad entry's deviation and
    the largest coefficient: the coefficient at scale 1e-3, the entry at
    1e3.  At k = 2 it is the entry's deviation alone."""
    alg, h = Algebra([2]), 1
    icp, _ = random_icp(alg, k, 2, h, seed=k)
    rng = np.random.default_rng(k)
    shape = (alg.dim,) * k + (h, h)
    bad = MultilinearMap(alg, k, h, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    entries = [list(row) for row in icp.entries]
    entries[0][1] = bad
    block = BlockMultilinearMap(entries)
    report = assert_matches_induced(block)
    assert not report["invariant"]
    entry_dev = bad.invariance_report(tol=report["tolerance"])["max_deviation"]
    largest = max(float(np.abs(phi.coeffs).max()) for row in entries for phi in row)
    if k == 2:
        assert report["max_deviation"] == entry_dev
        assert entry_dev < largest or scale > 1  # the coefficients do not count at k = 2
    else:
        assert report["max_deviation"] == (largest if scale < 1 else entry_dev)
        assert (largest > entry_dev) == (scale < 1)


def test_block_report_and_check_never_form_the_induced_map(monkeypatch, tmp_path, capsys):
    """The block-n2 benchmark's `check` map: M_2, k = 4, n = 2, h = 2, seed 0."""
    block, _ = random_icp(Algebra([2]), 4, 2, 2, seed=0)
    spec = str(tmp_path / "grid4.json")
    assert cli.main(["gen", "dilation", "--algebra", "2", "--k", "4", "--n", "2", "--h", "2", "--out", spec]) == 0

    def forbidden(self):
        raise AssertionError("the induced map was formed")

    monkeypatch.setattr(BlockMultilinearMap, "induced_map", forbidden)
    report = block.block_invariance_report()
    assert report["exhaustive"] and not report["invariant"]
    capsys.readouterr()
    assert cli.main(["check", spec]) == 0
    assert "induced map" not in capsys.readouterr().err


def test_block_report_memory_stays_below_the_induced_tensor():
    grid4, _ = random_icp(Algebra([2]), 4, 2, 2, seed=0)
    # entries of their own: no report made before the measurement has a gather cached on them
    fresh = BlockMultilinearMap([[MultilinearMap(phi.algebra, phi.k, phi.h, phi.coeffs) for phi in row] for row in grid4.entries])
    tracemalloc.start()
    try:
        fresh.block_invariance_report()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    induced = grid4.induced_map()
    assert_matches_induced(grid4)
    assert peak < induced.coeffs.nbytes / 8, (peak, induced.coeffs.nbytes)
