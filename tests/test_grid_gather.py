"""Block invariance gathered straight from the grid, against the induced map
over M_n(A) that it no longer forms.

A coefficient block of the induced map is one entry's coefficient or zero,
so the grid gather must give the induced map's report key for key, the
tolerance included; the seeded sampler draws the same tuples and evaluates
them another way, so its deviation agrees up to round-off.
"""

import tracemalloc

import numpy as np
import pytest

from icpmaps import cli, multimap
from icpmaps.algebra import Algebra
from icpmaps.blockmap import BlockMultilinearMap
from icpmaps.factory import noninvariant_block_example, random_icp
from test_chain_kernel import _oracle_cases, random_grid


def _params(cases):
    return [pytest.param(*c, id=f"{'+'.join(f'M{b}' for b in c[0])}-n{c[1]}-k{c[2]}-h{c[3]}") for c in cases]


CASES = list(_oracle_cases())
# cases whose padded blocks at every basis tuple stay small
SMALL_CASES = [(b, n, k, h) for b, n, k, h in CASES if (n * n * sum(x * x for x in b)) ** k * (n * h) ** 2 <= 2 * 10**5]


@pytest.mark.parametrize("blocks,n,k,h", _params(CASES))
def test_grid_report_equals_the_induced_maps(blocks, n, k, h):
    alg = Algebra(blocks)
    dense = random_grid(alg, n, k, h, np.random.default_rng([n, k, len(blocks), blocks[0]]))
    icp, _ = random_icp(alg, k, n, h, seed=k)
    for block in (dense, icp):
        assert block.block_invariance_report() == block.induced_map().invariance_report()
    if k >= 2:
        assert not dense.block_invariance_report()["invariant"]


@pytest.mark.parametrize("blocks,n,k,h", _params(SMALL_CASES))
def test_blocks_read_the_induced_coefficients(blocks, n, k, h):
    """Every basis tuple of M_n(A), chained or not, against the induced tensor."""
    block = random_grid(Algebra(blocks), n, k, h, np.random.default_rng([n, k, len(blocks), blocks[0]]))
    grid, induced = block.chain_grid(), block.induced_map()
    rows = np.arange(induced.algebra.dim**k)
    position, values = grid.blocks(rows)
    chained = position >= 0
    padded = np.zeros((len(rows), n, h, n, h), dtype=complex)
    padded[chained, position[chained] // n, :, position[chained] % n, :] = values[chained].reshape(-1, h, h)
    assert np.array_equal(padded.reshape(induced.coeffs.shape), induced.coeffs)
    assert not values[~chained].any()
    assert np.array_equal(grid.support(), np.flatnonzero(induced.coeffs.reshape(len(rows), -1).any(axis=1)))


def test_noninvariant_grid_report_equals_the_induced_maps():
    block = noninvariant_block_example()
    report = block.block_invariance_report()
    assert report == block.induced_map().invariance_report()
    assert report["exhaustive"] and not report["invariant"]


@pytest.mark.parametrize("make", [noninvariant_block_example, lambda: random_icp(Algebra([2]), 3, 2, 2, seed=1)[0]],
                         ids=["noninvariant", "icp"])
def test_sampled_path_agrees_with_the_induced_maps(make, monkeypatch):
    block = make()
    monkeypatch.setattr(multimap, "EXHAUSTIVE_TUPLE_LIMIT", 0)
    got = block.block_invariance_report(rng=np.random.default_rng(7), trials=50)
    want = block.induced_map().invariance_report(rng=np.random.default_rng(7), trials=50)
    assert not got["exhaustive"] and got["tuples_checked"] == 50
    assert {key: v for key, v in got.items() if key != "max_deviation"} == {
        key: v for key, v in want.items() if key != "max_deviation"
    }
    # the deviation is relative to the values already
    assert abs(got["max_deviation"] - want["max_deviation"]) <= 1e-12 * max(1.0, want["max_deviation"])


@pytest.fixture(scope="module")
def grid4():
    """The block-n2 benchmark's `check` map: M_2, k = 4, n = 2, h = 2, seed 0."""
    block, _ = random_icp(Algebra([2]), 4, 2, 2, seed=0)
    return block


def test_block_report_and_check_never_form_the_induced_map(grid4, monkeypatch, tmp_path, capsys):
    spec = str(tmp_path / "grid4.json")
    assert cli.main(["gen", "dilation", "--algebra", "2", "--k", "4", "--n", "2", "--h", "2", "--out", spec]) == 0

    def forbidden(self):
        raise AssertionError("the induced map was formed")

    monkeypatch.setattr(BlockMultilinearMap, "induced_map", forbidden)
    report = grid4.block_invariance_report(trials=100)
    assert report["exhaustive"] and not report["invariant"]
    capsys.readouterr()
    assert cli.main(["check", spec]) == 0
    assert "induced map" not in capsys.readouterr().err


def test_block_report_memory_stays_below_the_induced_tensor(grid4):
    fresh = BlockMultilinearMap(grid4.entries)  # its chain grid is built inside the trace
    tracemalloc.start()
    try:
        report = fresh.block_invariance_report()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    induced = grid4.induced_map()
    assert report == induced.invariance_report()
    assert peak < induced.coeffs.nbytes / 8, (peak, induced.coeffs.nbytes)
