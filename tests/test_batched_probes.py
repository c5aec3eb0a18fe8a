"""Batched seeded probes against one-at-a-time loops.

The estimator runs its restarts, and the falsifier its trials, as rows of
batches. The loops below are the reference: one restart or one trial at a
time, each a single tuple of t-matrices. The estimator's loop steps each
slot to the polar factor of its gradient on the slot's linear operator,
built pair of grid entries by pair with 2-D matrix products from chains
formed in the batch's order. Every row of a batch is its own slice of every
batched operation, so restart values, witnesses and counterexamples must
agree bit for bit, however the rows are split into batches.

The ascent that evaluates every candidate through the chain kernel, over
all k slots, is kept as a tolerance oracle: the slot operator only reorders
the sums, so its restarts take the same steps and end within round-off.
"""

import numpy as np
import pytest

from icpmaps import gram, multimap, norms
from icpmaps.algebra import (
    Algebra,
    AlgebraElement,
    MatrixOverAlgebra,
    amplified_algebra,
    multiply,
    project_unit_ball,
    random_element,
    random_psd,
)
from icpmaps.blockmap import as_block_map
from icpmaps.factory import random_icp
from icpmaps.gram import positivity_falsify, sample_admissible_tuple
from icpmaps.multimap import MultilinearMap, amplified_evaluate, chain_product
from icpmaps.serialize import load_map_spec
from icpmaps.tolerances import FALSIFIER_TOL

# -- the one-at-a-time loops ---------------------------------------------------


def loop_element(algebra, rng):
    """A complex-Gaussian element, two normal draws of a block's shape per block."""
    return AlgebraElement(algebra, [
        1.0 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
        for d in algebra.block_dims
    ])


def loop_psd(algebra, rng):
    y = loop_element(algebra, rng)
    p = multiply(y.star(), y)
    return 0.5 * (p + p.star())


def loop_sample(algebra, k, t, rng):
    """One admissible tuple, element by element."""
    amp = amplified_algebra(algebra, t)
    m = (k + 1) // 2
    if k % 2 == 1:
        bs = [loop_element(amp.algebra, rng) for _ in range(m - 1)]
        elems = bs + [loop_psd(amp.algebra, rng)] + [b.star() for b in reversed(bs)]
    else:
        bs = [loop_element(amp.algebra, rng) for _ in range(m)]
        elems = bs + [b.star() for b in reversed(bs)]
    return [amp.extract(e) for e in elems]


def loop_falsify(phi, levels, trials, seed, tol=FALSIFIER_TOL):
    block = as_block_map(phi)
    algebra = block.amplification.algebra
    rng = np.random.default_rng(seed)
    for t in levels:
        for _ in range(trials):
            mats = loop_sample(algebra, block.k, t, rng)
            value = amplified_evaluate(block, t, mats)
            eigs = np.linalg.eigvalsh((value + value.conj().T) / 2.0)
            if eigs.min() < -tol * (1.0 + float(np.abs(value).max())):
                return mats, t, float(eigs.min()), float(np.linalg.norm(value, 2))
    return None


def _loop_chain(stacks, size):
    if not stacks:
        return np.eye(size, dtype=np.complex128)[:, None, :]
    chain = stacks[0]
    for z in stacks[1:]:
        chain = (chain.reshape(-1, size) @ z.reshape(size, -1)).reshape(size, -1, size)
    return chain


def _loop_slot_operator(grid, t, prefix, suffix):
    """The value as a ((tn)^2 d, (tnh)^2) linear map of the stack in the slot
    between two chains (``_loop_chain``'s layout): the longer chain is
    contracted first, with each phi_ij's coefficients, then the shorter, one
    grid row i (or column j) at a time."""
    n, h = grid.n, grid.h
    size, d = t * n, grid.unit_index.shape[0]
    before, after = prefix.shape[1], suffix.shape[1]
    pre = prefix.reshape(t, n, before, size)
    suf = suffix.reshape(size, after, t, n)
    # pre_i[(s, c), P] and suf_j[P', (e, s')]
    pre_i = [pre[:, i].transpose(0, 2, 1).reshape(t * size, before) for i in range(n)]
    suf_j = [suf[..., j].transpose(1, 0, 2).reshape(after, size * t) for j in range(n)]
    op = np.empty((size, d, size, t, n, h, t, n, h), dtype=np.complex128)
    if after >= before:
        # the suffix first, then the prefix, one grid row i at a time
        for i in range(n):
            xs = []
            for j in range(n):
                coeffs = grid.ends[i, j].reshape(before, d, after, h, h).transpose(3, 4, 0, 1, 2)
                x = np.ascontiguousarray(coeffs).reshape(-1, after) @ suf_j[j]
                xs.append(x.reshape(h * h, before, -1).transpose(1, 0, 2))
            out = (pre_i[i] @ np.stack(xs, axis=1).reshape(before, -1)).reshape(t, size, n, h, h, d, size, t)
            op[:, :, :, :, i] = out.transpose(1, 5, 6, 0, 3, 7, 2, 4)
    else:
        # the prefix first, then the suffix, one grid column j at a time
        for j in range(n):
            ys = [
                (pre_i[i] @ grid.ends[i, j].reshape(before, -1)).reshape(-1, after, h * h).transpose(0, 2, 1)
                for i in range(n)
            ]
            out = (np.stack(ys).reshape(-1, after) @ suf_j[j]).reshape(n, t, size, d, h, h, size, t)
            op[..., j, :] = out.transpose(2, 3, 6, 1, 0, 4, 7, 5)
    return op.reshape(size * d * size, -1)


def _loop_gradient(grid, t, op, u, vh):
    """Ascent direction in the slot's coordinates from the value's top
    singular pair: the conjugate of op @ vec(conj(u) conj(vh))."""
    size = t * grid.n
    grad = op @ np.outer(u.conj(), vh.conj()).reshape(-1, 1)
    return grid.ungroup(np.conj(grad).reshape(1, size, -1, size))[0]


def _loop_starts(block, amp, pinned, rng):
    return [
        pinned[l] if l in pinned else amp.extract(project_unit_ball(loop_element(amp.algebra, rng)))
        for l in range(block.k)
    ]


def _loop_polar(amp, x):
    """The polar factor U_r V_r^H of each block of a t-matrix, through its
    element, on the singular pairs above ``POLAR_RANK_RTOL`` times the
    block's largest singular value."""
    blocks = []
    for blk in amp.embed(x).blocks:
        u, s, vh = np.linalg.svd(blk)
        r = int((s > norms.POLAR_RANK_RTOL * s[0]).sum())
        blocks.append(np.pad(u[:, :r], ((0, 0), (0, len(s) - r))) @ vh)
    return amp.extract(AlgebraElement(amp.algebra, blocks))


def loop_norm_estimate(phi, t, restarts, iters, seed, pinned=None):
    """(values, sweeps, stops, witness) of restarts run one at a time, each
    (sweep, slot) stepping to the polar factor of the gradient on the slot's
    operator, with one full SVD of the candidate's value; a restart's value
    is the kernel's at its final point.  Each sweep forms its chains as the
    batch does: the chains after the free slots right to left from the
    sweep's starting stacks, and the chain before a slot extended after each
    slot's step."""
    block = as_block_map(phi)
    grid = block.chain_grid()
    amp = amplified_algebra(grid.arg_algebra, t)
    pinned = pinned or {}
    k, size, value_size = block.k, t * grid.n, t * grid.n * grid.h
    first = min((l for l in range(k) if l not in pinned), default=k)

    best_sigma, best_mats, values, sweeps, stops = -np.inf, None, [], [], []
    for r in range(restarts):
        mats = _loop_starts(block, amp, pinned, np.random.default_rng([seed, r]))
        u_mat, s, vh_mat = np.linalg.svd(amplified_evaluate(block, t, mats))
        sigma, u, vh = s[0], u_mat[:, 0], vh_mat[0]
        swept, stop = 0, "iters"
        for _ in range(iters):
            swept += 1
            improved = False
            stacks = [grid.regroup(x.coords[None])[0] for x in mats]
            suffixes = [_loop_chain([], size)]
            for slot in range(k - 1, first, -1):
                suffixes.append(_loop_chain([stacks[slot], suffixes[-1]], size) if slot < k - 1 else stacks[slot])
            prefix = _loop_chain(stacks[:first], size)
            for slot in range(first, k):
                suffix = suffixes.pop()
                if slot not in pinned:
                    op = _loop_slot_operator(grid, t, prefix, suffix)
                    direction = _loop_gradient(grid, t, op, u, vh)
                    cand = _loop_polar(amp, MatrixOverAlgebra(grid.arg_algebra, direction))
                    cand_stack = grid.regroup(cand.coords[None])[0]
                    cand_value = (cand_stack.reshape(1, -1) @ op).reshape(value_size, value_size)
                    cand_u, cand_s, cand_vh = np.linalg.svd(cand_value)
                    if cand_s[0] > sigma * (1.0 + norms.ASCENT_RTOL):
                        mats[slot], stacks[slot] = cand, cand_stack
                        sigma, u, vh, improved = cand_s[0], cand_u[:, 0], cand_vh[0], True
                if slot < k - 1:
                    prefix = _loop_chain([prefix, stacks[slot]], size) if slot else stacks[0]
            if not improved:
                stop = "converged"
                break
        sigma = float(np.linalg.norm(amplified_evaluate(block, t, mats), 2))
        values.append(sigma)
        sweeps.append(swept)
        stops.append(stop)
        if sigma > best_sigma:
            best_sigma, best_mats = sigma, mats
    return values, sweeps, stops, best_mats


def _kernel_loop_gradient(grid, t, mats, slot, value):
    n, h = grid.n, grid.h
    size = t * n
    u_mat, _, vh_mat = np.linalg.svd(value)
    u = u_mat[:, 0].reshape(t, n, h).conj()
    v = vh_mat[0].conj().reshape(t, n, h)
    uv = np.einsum("siu,tjv->ijuvst", u, v).reshape(n, n, h * h, t * t)
    weight = np.matmul(grid.ends, uv).reshape(n, n, -1, t, t).transpose(3, 0, 2, 4, 1)
    stacks = [grid.regroup(x.coords[None])[0] for x in mats]
    prefix = _loop_chain(stacks[:slot], size)
    suffix = _loop_chain(stacks[slot + 1 :], size)
    left = prefix.reshape(-1, size).T @ weight.reshape(prefix.shape[0] * prefix.shape[1], -1)
    grad = left.reshape(-1, suffix.shape[1] * size) @ suffix.reshape(size, -1).T
    return grid.ungroup(np.conj(grad).reshape(1, size, -1, size))[0]


def kernel_loop_norm_estimate(phi, t, restarts, iters, seed):
    """(values, sweeps, stops) of restarts run one at a time, each polar
    candidate evaluated through the chain kernel over all k slots: the
    tolerance oracle."""
    block = as_block_map(phi)
    grid = block.chain_grid()
    amp = amplified_algebra(grid.arg_algebra, t)

    values, sweeps, stops = [], [], []
    for r in range(restarts):
        mats = _loop_starts(block, amp, {}, np.random.default_rng([seed, r]))
        value = amplified_evaluate(block, t, mats)
        sigma = float(np.linalg.norm(value, 2))
        swept, stop = 0, "iters"
        for _ in range(iters):
            swept += 1
            improved = False
            for slot in range(block.k):
                direction = _kernel_loop_gradient(grid, t, mats, slot, value)
                cand = _loop_polar(amp, MatrixOverAlgebra(grid.arg_algebra, direction))
                cand_value = amplified_evaluate(block, t, mats[:slot] + [cand] + mats[slot + 1 :])
                cand_sigma = float(np.linalg.norm(cand_value, 2))
                if cand_sigma > sigma * (1.0 + norms.ASCENT_RTOL):
                    mats[slot], value, sigma, improved = cand, cand_value, cand_sigma, True
            if not improved:
                stop = "converged"
                break
        values.append(sigma)
        sweeps.append(swept)
        stops.append(stop)
    return values, sweeps, stops


# -- the cases ---------------------------------------------------------------------


def _random_map(alg, k, h, seed):
    rng = np.random.default_rng(seed)
    shape = (alg.dim,) * k + (h, h)
    return MultilinearMap(alg, k, h, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _benchmark_spec(blocks, k, n, h):
    return random_icp(Algebra(blocks), k, n, h, seed=0)[0]


MAPS = {
    "grid3": lambda: _benchmark_spec([2], 3, 2, 2),
    "grid3-wide": lambda: _benchmark_spec([2, 2], 3, 2, 2),
    "plain-k5": lambda: _benchmark_spec([2], 5, 1, 2),
    "psi": lambda: load_map_spec({"kind": "psi"}),
    "random-c3-k3": lambda: _random_map(Algebra([1, 1, 1]), 3, 2, 1),
    "random-m2c-k2": lambda: _random_map(Algebra([2, 1]), 2, 1, 2),
    "random-m2-k4": lambda: _random_map(Algebra([2]), 4, 1, 3),
    # every restart ends at 0.0: the witness is the first restart's
    "zero": lambda: MultilinearMap(Algebra([2, 1]), 3, 1, np.zeros((5, 5, 5, 1, 1))),
}


def _split_budget(monkeypatch, phi, t, rows, operator):
    """Set the byte budget so that a level-t batch of ``phi`` holds ``rows``
    rows: of slot operators (the estimator's restarts), whose sweeps hold the
    chains after every slot, (tn)^2 (1 + d + .. + d^(k-1)) scalars a row, plus
    the operator, (tn)^2 d (tnh)^2 a row, or of kernel calls (the falsifier's
    trials), two half-chains over j = ceil(k/2) and k - j slots plus the
    prefix contracted with the coefficients, t^2 n^3 d^(k-j) h^2 scalars a
    row."""
    grid = as_block_map(phi).chain_grid()
    n, k, d, h = grid.n, grid.k, grid.unit_index.shape[0], grid.h
    if operator:
        row_scalars = (t * n) ** 2 * sum(d**j for j in range(k)) + (t * n) ** 2 * d * (t * n * h) ** 2
    else:
        half = (k + 1) // 2
        row_scalars = (t * n) ** 2 * (d**half + d ** (k - half)) + t * t * n**3 * d ** (k - half) * h * h
    monkeypatch.setattr(multimap, "PROBE_BATCH_BYTES", rows * row_scalars * 16)
    assert (grid.operator_batch_rows(t) if operator else grid.batch_rows(t)) == rows


def _assert_estimate_matches_loop(phi, t, restarts, iters, seed, pinned=None):
    est = norms.norm_estimate(phi, t=t, restarts=restarts, iters=iters, seed=seed, pinned=pinned)
    values, sweeps, stops, witness = loop_norm_estimate(phi, t, restarts, iters, seed, pinned)
    assert est.restart_values == values
    assert (est.restart_sweeps, est.restart_stops) == (sweeps, stops)
    assert est.value == max(values)
    for x, y in zip(est.witness, witness):
        assert np.array_equal(x.coords, y.coords)
    return est


def _assert_falsifier_matches_loop(phi, levels, trials, seed):
    found = positivity_falsify(phi, levels=levels, trials=trials, seed=seed)
    expected = loop_falsify(phi, levels, trials, seed)
    if expected is None:
        assert found is None
        return found
    mats, level, min_eig, value_norm = expected
    assert (found.level, found.min_eigenvalue, found.value_norm) == (level, min_eig, value_norm)
    for x, y in zip(found.mats, mats):
        assert np.array_equal(x.coords, y.coords)
    return found


# -- the row rule ------------------------------------------------------------------


@pytest.mark.parametrize(
    "blocks, k, n, h, rows",
    [
        # the benchmark's plain-n1 and block-n2 (grid3) specs: rows per kernel call at t = 1, 2, ...
        ([2], 5, 1, 2, [455, 113, 50]),
        ([2], 3, 2, 2, [315, 78]),
    ],
)
def test_default_budget_rows(blocks, k, n, h, rows):
    grid = as_block_map(_benchmark_spec(blocks, k, n, h)).chain_grid()
    assert multimap.PROBE_BATCH_BYTES == 1024 * 1024
    for t, expected in enumerate(rows, start=1):
        assert grid.batch_rows(t) == expected
        # a default estimate (8 restarts in `russo-dye --cb`) ascends as one batch
        assert grid.operator_batch_rows(t) >= 8


@pytest.mark.parametrize("name", ["grid3", "plain-k5", "random-m2-k4"])
def test_results_do_not_depend_on_the_budget(name, monkeypatch):
    phi = MAPS[name]()
    results = []
    for budget in (128 * 1024, multimap.PROBE_BATCH_BYTES):
        monkeypatch.setattr(multimap, "PROBE_BATCH_BYTES", budget)
        est = norms.norm_estimate(phi, t=2, restarts=8, iters=5, seed=1)
        found = positivity_falsify(phi, levels=(1, 2), trials=60, seed=2)
        results.append((est, found))
    (est, found), (est_default, found_default) = results
    assert est.restart_values == est_default.restart_values
    assert (est.restart_sweeps, est.restart_stops) == (est_default.restart_sweeps, est_default.restart_stops)
    for x, y in zip(est.witness, est_default.witness):
        assert np.array_equal(x.coords, y.coords)
    assert (found is None) == (found_default is None)
    if found is not None:
        assert (found.level, found.min_eigenvalue, found.value_norm) == (
            found_default.level, found_default.min_eigenvalue, found_default.value_norm
        )
        for x, y in zip(found.mats, found_default.mats):
            assert np.array_equal(x.coords, y.coords)


# -- the sampler -------------------------------------------------------------------


@pytest.mark.parametrize("blocks", [[1], [2], [1, 1], [2, 1], [3]], ids=str)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_sampler_rows_repeat_the_loop_stream(blocks, k, t):
    alg = Algebra(blocks)
    batched_rng, loop_rng = np.random.default_rng([k, t]), np.random.default_rng([k, t])
    stacks = sample_admissible_tuple(alg, k, t, batched_rng, rows=3)
    assert [x.shape for x in stacks] == [(3, t, t, alg.dim)] * k
    for row in range(3):
        for x, y in zip(stacks, loop_sample(alg, k, t, loop_rng)):
            assert np.array_equal(x[row], y.coords)
    single = sample_admissible_tuple(alg, k, t, batched_rng)
    for x, y in zip(single, loop_sample(alg, k, t, loop_rng)):
        assert np.array_equal(x.coords, y.coords)
    assert batched_rng.standard_normal() == loop_rng.standard_normal()


@pytest.mark.parametrize("blocks", [[1], [2, 1], [3]], ids=str)
def test_random_elements_repeat_the_loop_stream(blocks):
    alg = Algebra(blocks)
    rng, loop_rng = np.random.default_rng(9), np.random.default_rng(9)
    for draw, loop_draw in ((random_element, loop_element), (random_psd, loop_psd)):
        x, y = draw(alg, rng), loop_draw(alg, loop_rng)
        assert all(np.array_equal(a, b) for a, b in zip(x.blocks, y.blocks))


# -- the estimator -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAPS))
def test_estimator_restarts_match_the_loop(name):
    phi = MAPS[name]()
    for t in (1, 2):
        _assert_estimate_matches_loop(phi, t, restarts=5, iters=4, seed=t)


@pytest.mark.parametrize("name", ["grid3", "random-c3-k3", "random-m2c-k2"])
def test_estimator_restarts_split_unevenly_match_the_loop(name, monkeypatch):
    phi = MAPS[name]()
    _split_budget(monkeypatch, phi, 2, 3, operator=True)
    _assert_estimate_matches_loop(phi, 2, restarts=8, iters=5, seed=7)


def test_estimator_rows_leaving_the_batch_match_the_loop(monkeypatch):
    # restarts converge after different numbers of sweeps, some hit the cap:
    # the polar step converges within 35 sweeps here, so the cap is 32
    phi = MAPS["random-m2c-k2"]()
    _split_budget(monkeypatch, phi, 1, 3, operator=True)
    est = _assert_estimate_matches_loop(phi, 1, restarts=8, iters=32, seed=0)
    assert set(est.restart_stops) == {"converged", "iters"}
    assert len(set(est.restart_sweeps)) > 2


def test_estimator_with_pinned_slots_matches_the_loop(monkeypatch):
    phi = MAPS["random-c3-k3"]()
    _split_budget(monkeypatch, phi, 1, 3, operator=True)
    one = MatrixOverAlgebra.identity(phi.algebra, 1)
    other = MatrixOverAlgebra(phi.algebra, np.full((1, 1, 3), 0.5 + 0.25j))
    for pinned in ({0: one}, {1: other}, {0: one, 2: other}, {0: one, 1: other, 2: one}):
        _assert_estimate_matches_loop(phi, 1, restarts=8, iters=4, seed=0, pinned=pinned)


def test_estimator_on_corpus_maps_matches_the_loop(small_corpus):
    for entry in small_corpus:
        _assert_estimate_matches_loop(entry.block_map, 2, restarts=3, iters=3, seed=0)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_estimator_restarts_agree_with_the_kernel_ascent(name):
    # the slot operator reorders the kernel's sums: the same steps, the
    # same sweeps and stops, and values within round-off
    phi = MAPS[name]()
    for t in (1, 2, 3):
        for seed in range(3):
            est = norms.norm_estimate(phi, t=t, restarts=3, iters=4, seed=seed)
            values, sweeps, stops = kernel_loop_norm_estimate(phi, t, 3, 4, seed)
            assert (est.restart_sweeps, est.restart_stops) == (sweeps, stops)
            for value, expected in zip(est.restart_values, values):
                assert abs(value - expected) <= 1e-13 * expected


@pytest.mark.parametrize("name", ["grid3", "grid3-wide", "plain-k5", "random-m2-k4"])
def test_slot_operator_rows_match_the_loop(name):
    phi = MAPS[name]()
    grid = as_block_map(phi).chain_grid()
    rng = np.random.default_rng(5)
    for t in (1, 2):
        shape = (3, t, t, grid.arg_algebra.dim)
        stacks = [grid.regroup(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(grid.k)]
        size = t * grid.n
        for slot in range(grid.k):
            op = grid.slot_operator(t, chain_product(stacks[:slot], size), chain_product(stacks[slot + 1 :], size))
            for row in range(3):
                prefix = _loop_chain([z[row] for z in stacks[:slot]], size)
                suffix = _loop_chain([z[row] for z in stacks[slot + 1 :]], size)
                assert np.array_equal(op[row], _loop_slot_operator(grid, t, prefix, suffix))


# -- the falsifier ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAPS))
def test_falsifier_trials_match_the_loop(name):
    _assert_falsifier_matches_loop(MAPS[name](), (1, 2), trials=40, seed=3)


def test_falsifier_finds_the_counterexamples():
    for name in ("psi", "random-c3-k3", "random-m2-k4"):
        assert _assert_falsifier_matches_loop(MAPS[name](), (1, 2), trials=40, seed=3) is not None


@pytest.mark.parametrize("name", ["psi", "random-c3-k3", "grid3"])
def test_falsifier_trials_split_unevenly_match_the_loop(name, monkeypatch):
    phi = MAPS[name]()
    _split_budget(monkeypatch, phi, 1, 3, operator=False)
    for seed in range(4):
        _assert_falsifier_matches_loop(phi, (1, 2), trials=8, seed=seed)


def test_falsifier_evaluates_each_trial_once(monkeypatch):
    phi = MAPS["grid3"]()
    _split_budget(monkeypatch, phi, 1, 3, operator=False)
    rows = []

    def counted(*args):
        value = amplified_evaluate(*args)
        rows.append(len(value))
        return value

    monkeypatch.setattr(gram, "amplified_evaluate", counted)
    assert positivity_falsify(phi, levels=(1, 2), trials=8, seed=0) is None
    assert rows == [3, 3, 2] + [1] * 8


def test_falsifier_on_corpus_maps_matches_the_loop(small_corpus):
    for entry in small_corpus:
        assert _assert_falsifier_matches_loop(entry.block_map, (1, 2), trials=10, seed=entry.seed) is None
