"""The chain kernel: block maps evaluated straight from the grid, the
estimator gradient, and the materialized amplification, each against an
independent reference."""

import numpy as np
import pytest

from icpmaps import multimap, norms
from icpmaps.algebra import Algebra, MatrixOverAlgebra, amplified_algebra
from icpmaps.blockmap import BlockMultilinearMap
from icpmaps.gram import positivity_falsify
from icpmaps.multimap import AMPLIFY_SIZE_LIMIT, MultilinearMap, amplified_evaluate

# Induced coefficient tensors above this many scalars make the oracle too slow.
ORACLE_SIZE = 2 * 10**6


def random_map(alg, k, h, rng):
    shape = (alg.dim,) * k + (h, h)
    return MultilinearMap(alg, k, h, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_grid(alg, n, k, h, rng):
    return BlockMultilinearMap([[random_map(alg, k, h, rng) for _ in range(n)] for _ in range(n)])


def random_mats(alg, t, count, rng):
    shape = (t, t, alg.dim)
    return [MatrixOverAlgebra(alg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(count)]


def _oracle_cases():
    for blocks in ([2], [1, 1], [2, 1]):
        d = sum(b * b for b in blocks)
        for n in (1, 2, 3):
            for k in range(1, 6):
                h = 2 if k <= 3 else 1
                if (n * n * d) ** k * (n * h) ** 2 <= ORACLE_SIZE:
                    yield blocks, n, k, h


@pytest.mark.parametrize(
    "blocks,n,k,h", list(_oracle_cases()), ids=lambda v: "".join(map(str, v)) if isinstance(v, list) else str(v)
)
def test_grid_kernel_matches_induced_map(blocks, n, k, h):
    rng = np.random.default_rng([n, k, len(blocks), blocks[0]])
    block = random_grid(Algebra(blocks), n, k, h, rng)
    induced = block.induced_map()
    for t in (1, 2, 3):
        mats = random_mats(block.amplification.algebra, t, k, rng)
        value = amplified_evaluate(block, t, mats)
        expected = amplified_evaluate(induced, t, mats)
        assert value.shape == (t * n * h, t * n * h)
        assert np.abs(value - expected).max() <= 1e-12 * np.abs(expected).max()


def test_oracle_cases_cover_every_grid_size_and_arity():
    cases = list(_oracle_cases())
    assert {n for _, n, _, _ in cases} == {1, 2, 3}
    assert {k for _, _, k, _ in cases} == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_kernel_rows_match_lone_rows_bitwise(n, t):
    # the half-chains meet through the coefficients in per-row matrix
    # products, so a row rounds the same alone and in any batch
    for k in range(1, 6):
        rng = np.random.default_rng([n, t, k])
        grid = random_grid(Algebra([2, 1]), n, k, 2 if k <= 3 else 1, rng).chain_grid()
        shape = (5, t, t, grid.arg_algebra.dim)
        stacks = [grid.regroup(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(k)]
        # a pinned slot: one argument broadcast over the rows
        stacks[k // 2] = np.broadcast_to(stacks[k // 2][:1], stacks[k // 2].shape)
        value = grid.value(t, stacks)
        assert value.shape == (5, t * n * grid.h, t * n * grid.h)
        for row in range(5):
            assert np.array_equal(value[row], grid.value(t, [z[row : row + 1] for z in stacks])[0])
        assert np.array_equal(value[1:4], grid.value(t, [z[1:4] for z in stacks]))


def test_block_evaluate_is_level_one_of_the_kernel(rng):
    block = random_grid(Algebra([2, 1]), 2, 3, 2, rng)
    mats = random_mats(block.algebra, 2, 3, rng)
    amp = block.amplification
    lifted = [MatrixOverAlgebra(amp.algebra, amp.embed(x).coords()[None, None]) for x in mats]
    value = block.block_evaluate(mats)
    assert np.abs(value - amplified_evaluate(block, 1, lifted)).max() <= 1e-12 * np.abs(value).max()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_slot_operator_matches_the_kernel(n, k):
    rng = np.random.default_rng([n, k])
    block = random_grid(Algebra([2, 1]), n, k, 2, rng)
    for t in (1, 2, 3):
        problem = norms._AscentProblem(block, t, {})
        mats = problem.random_starts([np.random.default_rng([n, k, r]) for r in range(3)])
        # a pinned slot: one argument broadcast over the rows
        mats[k // 2] = np.broadcast_to(mats[k // 2][0], mats[k // 2].shape)
        value = problem.value(mats)
        for slot in range(k):
            op = problem.slot_operator(mats, slot)
            assert op.shape == (3, (t * n) ** 2 * 5, (t * n * 2) ** 2)
            got = problem.slot_values(op, mats[slot])
            assert np.abs(got - value).max() <= 1e-13 * np.abs(value).max()


@pytest.mark.parametrize("n, levels", [(1, (1, 2, 3)), (2, (1, 2))])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_slot_operator_in_reused_buffers_keeps_every_bit(n, levels, k):
    # the estimator's buffers are sized for its largest batch and reused as it drops
    # converged rows: a call with fewer rows after a larger one must still build every bit
    rng = np.random.default_rng([n, k, 7])
    block = random_grid(Algebra([2, 1]), n, k, 2, rng)
    for t in levels:
        problem = norms._AscentProblem(block, t, {})
        grid = problem.grid
        mats = problem.random_starts([np.random.default_rng([n, k, t, r]) for r in range(5)])
        stacks = [grid.regroup(x) for x in mats]
        # stale entries must never show: every call overwrites what it reads
        out = tuple(np.full(5 * grid.operator_size(t), np.nan + 0j) for _ in range(2))
        for rows in (5, 2, 4):
            kept = np.arange(rows)
            for slot in range(k):
                part = [z[kept] for z in stacks]
                got = grid.slot_operator(t, part, slot, out=out)
                want = grid.slot_operator(t, part, slot)
                assert got.shape == want.shape == (rows, (t * n) ** 2 * 5, (t * n * 2) ** 2)
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_estimator_gradient_matches_central_differences(n):
    rng = np.random.default_rng(n)
    block = random_grid(Algebra([2]), n, 3, 2, rng)
    t, eps, rows = 2, 1e-6, 3
    problem = norms._AscentProblem(block, t, {})
    mats = problem.random_starts([np.random.default_rng([n, r]) for r in range(rows)])
    u, _, vh = np.linalg.svd(problem.value(mats))

    def sigma(args, row):
        return np.linalg.norm(problem.value([x[row : row + 1] for x in args])[0], 2)

    for slot in range(block.k):
        grad = problem.direction(problem.slot_operator(mats, slot), u[:, :, 0], vh[:, 0])
        assert grad.shape == mats[slot].shape
        for row in range(rows):
            direction = rng.standard_normal(grad.shape[1:])
            for unit, part in ((1.0, grad[row].real), (1j, grad[row].imag)):
                step = eps * unit * direction

                def moved(sign):
                    x = mats[slot].copy()
                    x[row] += sign * step
                    return sigma(mats[:slot] + [x] + mats[slot + 1 :], row)

                slope = (moved(1) - moved(-1)) / (2 * eps)
                expected = float((part * direction).sum())
                assert abs(slope - expected) <= 1e-6 * (1 + abs(expected))


def test_falsifier_and_estimator_never_build_the_induced_map(monkeypatch):
    block = random_grid(Algebra([2]), 2, 3, 1, np.random.default_rng(4))

    def forbidden(self):
        raise AssertionError("induced_map called")

    monkeypatch.setattr(BlockMultilinearMap, "induced_map", forbidden)
    positivity_falsify(block, levels=(1, 2), trials=5, seed=0)
    norms.norm_estimate(block, t=2, restarts=2, iters=2, seed=0)


def test_ascent_evaluates_each_point_once(monkeypatch):
    """Kernel rows only at each restart's start and final point, and one
    slot-operator row per projected candidate; no chain, in the kernel or
    outside it, runs over all k slots."""
    block = random_grid(Algebra([2]), 2, 3, 1, np.random.default_rng(5))
    rows = {"kernel": 0, "operator": 0, "project": 0}
    chains, calls = [], []
    kernel, chain_product = norms.amplified_evaluate, multimap.chain_product
    slot_values, project = norms._AscentProblem.slot_values, norms._AscentProblem.project

    def counted_kernel(*args):
        value = kernel(*args)
        rows["kernel"] += len(value)
        calls.append(len(value))
        return value

    def counted_chain(stacks, size):
        chains.append(len(stacks))
        return chain_product(stacks, size)

    def counted_values(self, op, coords):
        rows["operator"] += len(coords)
        return slot_values(self, op, coords)

    def counted_project(self, coords):
        rows["project"] += len(coords)
        return project(self, coords)

    monkeypatch.setattr(norms, "amplified_evaluate", counted_kernel)
    monkeypatch.setattr(multimap, "chain_product", counted_chain)
    monkeypatch.setattr(norms._AscentProblem, "slot_values", counted_values)
    monkeypatch.setattr(norms._AscentProblem, "project", counted_project)
    restarts = 2
    est = norms.norm_estimate(block, t=2, restarts=restarts, iters=3, seed=0)
    assert rows["project"] > 0
    assert rows["operator"] == rows["project"]
    # one batch: a kernel call at its start and one at its end
    assert calls == [restarts, restarts]
    assert max(chains) < block.k
    monkeypatch.undo()
    assert np.linalg.norm(amplified_evaluate(block, 2, est.witness), 2) == est.value


def _amplify_loop(phi, t):
    """Tuple-by-tuple amplification: the amplified coefficient at the chained
    matrix units is the base coefficient, placed in block (c_0, c_k)."""
    amp = amplified_algebra(phi.algebra, t)
    d, k, h = phi.algebra.dim, phi.k, phi.h
    unit = np.empty((d, t, t), dtype=int)
    for q in range(d):
        b, r, c = phi.algebra.basis_label(q)
        size = phi.algebra.block_dims[b]
        for i in range(t):
            for j in range(t):
                unit[q, i, j] = amp.algebra.basis_index(b, i * size + r, j * size + c)
    out = np.zeros((amp.algebra.dim,) * k + (t * h, t * h), dtype=complex)
    for base in np.ndindex(*(d,) * k):
        for chain in np.ndindex(*(t,) * (k + 1)):
            idx = tuple(unit[base[l], chain[l], chain[l + 1]] for l in range(k))
            i, j = chain[0], chain[-1]
            out[idx][i * h : (i + 1) * h, j * h : (j + 1) * h] = phi.coeffs[base]
    return out


@pytest.mark.parametrize("blocks,k,h,t", [([2], 2, 2, 2), ([1, 1], 3, 1, 2), ([2, 1], 2, 1, 3), ([1], 4, 2, 2)])
def test_amplify_matches_tuple_loop(blocks, k, h, t):
    phi = random_map(Algebra(blocks), k, h, np.random.default_rng(k))
    assert np.array_equal(phi.amplify(t).coeffs, _amplify_loop(phi, t))


def test_amplify_size_guard():
    phi = random_map(Algebra([2]), 4, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"> {AMPLIFY_SIZE_LIMIT}"):
        phi.amplify(3)


def test_amplified_algebra_is_built_once_per_level():
    assert amplified_algebra(Algebra([2, 1]), 3) is amplified_algebra(Algebra([2, 1]), 3)
    assert amplified_algebra(Algebra([2, 1]), 2) is not amplified_algebra(Algebra([2, 1]), 3)


def test_single_entry_grid_reads_its_coefficients_in_place():
    # n = 1: the chain grid's ends are a view of the one entry's coefficients,
    # where a stacked copy held them twice, and every value keeps its bits
    rng = np.random.default_rng(3)
    for alg, k, h in [(Algebra([2]), 5, 2), (Algebra([1, 2]), 3, 1), (Algebra([3]), 4, 2)]:
        block = BlockMultilinearMap([[random_map(alg, k, h, rng)]])
        grid = block.chain_grid()
        assert np.shares_memory(grid.ends, block.entries[0][0].coeffs)
        copied = BlockMultilinearMap(block.entries)
        copied._grid = multimap.ChainGrid(grid.arg_algebra, k, h, grid.ends.copy(), grid.unit_index)
        assert not np.shares_memory(copied.chain_grid().ends, block.entries[0][0].coeffs)
        for t in (1, 2, 3):
            mats = [rng.standard_normal((4, t, t, alg.dim)) + 1j * rng.standard_normal((4, t, t, alg.dim)) for _ in range(k)]
            assert np.array_equal(amplified_evaluate(block, t, mats), amplified_evaluate(copied, t, mats))
