import numpy as np
import pytest

from icpmaps import multimap, norms, serialize
from icpmaps.algebra import Algebra, MatrixOverAlgebra
from icpmaps.factory import point_evaluation_example, random_icp, trace_example
from icpmaps.multimap import MultilinearMap, amplified_evaluate
from icpmaps.norms import (
    brute_force_commutative_norm,
    cb_16_bound_check,
    cb_russo_dye_check,
    norm_estimate,
    russo_dye_check,
    unit_norm,
)
from icpmaps.factory import commutative_invariant_family


def test_trace_estimate_converges_to_unit_norm():
    phi = trace_example(2)
    est = norm_estimate(phi, t=1, restarts=16, iters=30, seed=0)
    assert est.value <= 1.0 + 1e-9
    assert est.value >= 1.0 - 1e-6


def test_point_evaluation_estimate_is_one():
    phi = point_evaluation_example(2)
    est = norm_estimate(phi, t=1, restarts=16, iters=30, seed=0)
    assert abs(est.value - 1.0) <= 1e-9


def test_zero_map_estimate_is_zero():
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    est = norm_estimate(zero, t=1, restarts=2, iters=3, seed=0)
    assert est.value == 0.0


def test_witness_reproduces_value_and_stays_in_ball():
    phi = trace_example(2)
    est = norm_estimate(phi, t=2, restarts=3, iters=8, seed=1)
    from icpmaps.multimap import amplified_evaluate

    revalue = np.linalg.norm(amplified_evaluate(phi, 2, est.witness), 2)
    assert abs(revalue - est.value) <= 1e-10
    from icpmaps.algebra import amplified_algebra

    amp = amplified_algebra(phi.algebra, 2)
    assert all(nrm <= 1.0 + 1e-10 for nrm in est.witness_norms(amp))


def test_estimate_monotone_in_restarts():
    phi = trace_example(2)
    few = norm_estimate(phi, t=1, restarts=4, iters=10, seed=3)
    many = norm_estimate(phi, t=1, restarts=8, iters=10, seed=3)
    assert many.value >= few.value - 1e-14
    assert many.restart_values[:4] == few.restart_values


def test_restricted_search_matches_unrestricted(rng):
    for seed in (1, 2):
        gamma = np.random.default_rng(seed).uniform(0.2, 1.0, size=(2, 2))
        phi = commutative_invariant_family(gamma)
        one = MatrixOverAlgebra.identity(phi.algebra, 1)
        unrestricted = norm_estimate(phi, t=1, restarts=16, iters=60, seed=0)
        restricted = norm_estimate(phi, t=1, restarts=16, iters=60, seed=0, pinned={0: one})
        assert abs(unrestricted.value - restricted.value) <= 1e-6


def test_oracle_agrees_with_ascent_on_random_maps(rng):
    alg = Algebra([1, 1])
    for _ in range(4):
        coeffs = rng.standard_normal((2, 2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 2, 1, 1))
        phi = MultilinearMap(alg, 3, 1, coeffs)
        est = norm_estimate(phi, t=1, restarts=16, iters=30, seed=0)
        oracle = brute_force_commutative_norm(phi)
        assert abs(est.value - oracle) <= 0.05 * oracle


def test_oracle_requires_commutative_scalar():
    with pytest.raises(ValueError):
        brute_force_commutative_norm(trace_example(2))


def test_russo_dye_passes_on_fixtures():
    for phi in (trace_example(2), point_evaluation_example(2)):
        report = russo_dye_check(phi, restarts=16, iters=30, trials=80)
        assert report.passed and not report.hypothesis_failure
        assert report.invariant and report.counterexample is None
        assert abs(report.unit_witness_value - report.unit_norm) <= 1e-9
        assert abs(report.margin) <= 1e-9


def test_russo_dye_flags_sign_flip_as_hypothesis_failure():
    coeffs = -point_evaluation_example(2).coeffs
    neg = MultilinearMap(Algebra([1, 1]), 3, 1, coeffs)
    report = russo_dye_check(neg, restarts=8, iters=20, trials=80)
    assert report.counterexample is not None
    assert report.hypothesis_failure
    # the norm itself is unchanged by the sign flip, estimates stay at 1
    assert report.estimate.value <= report.unit_norm * (1 + 1e-6)


def test_cb_russo_dye_on_corpus_sample(small_corpus):
    for entry in small_corpus[:4]:
        report = cb_russo_dye_check(
            entry.block_map, entry.triple, t_max=2, restarts=2, iters=6, seed=0
        )
        assert report.passed, entry.name
        assert abs(report.v_bound - report.unit_norm) <= 1e-8 * (1 + report.unit_norm)


def test_cb_russo_dye_classical_k1(corpus):
    entry = next(e for e in corpus if e.k == 1 and e.n == 1)
    report = cb_russo_dye_check(entry.block_map, entry.triple, t_max=3, restarts=2, iters=8)
    assert report.passed


def test_cb_russo_dye_zero_map():
    zero = MultilinearMap(Algebra([1, 1]), 3, 1, np.zeros((2, 2, 2, 1, 1)))
    report = cb_russo_dye_check(zero, t_max=2, restarts=2, iters=4)
    assert report.unit_norm == 0.0 and report.v_bound == 0.0
    assert all(e.value <= 1e-12 for e in report.estimates)


def test_cb_16_bound(corpus):
    entry = next(e for e in corpus if e.k == 3 and e.n == 1 and e.d == 2)
    report = cb_16_bound_check(entry.block_map, t_max=2, restarts=2, iters=6)
    assert report.passed
    for phi in (trace_example(2), point_evaluation_example(2)):
        fixture_report = cb_16_bound_check(phi, t_max=2, restarts=2, iters=6)
        assert fixture_report.passed
        assert all(e.value <= 1.0 + 1e-6 for e in fixture_report.estimates)
    with pytest.raises(ValueError):
        cb_16_bound_check(next(e for e in corpus if e.k == 1).block_map)


def test_unit_norm_block_is_diagonal_max(corpus):
    entry = next(e for e in corpus if e.n == 2)
    block = entry.block_map
    diag = max(
        np.linalg.norm(block.entries[j][j].unit_value(), 2) for j in range(block.n)
    )
    assert abs(unit_norm(block) - diag) <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_ascent_length_ignores_last_bit_round_off(seed, monkeypatch):
    # a step must beat sigma by a relative margin: coefficients moved by
    # 1e-15 relative give the same evaluations and the same estimate
    block, _ = random_icp(Algebra([1, 1]), 3, 1, 1, seed=seed)
    phi = block.entries[0][0]
    noise = np.random.default_rng(seed).standard_normal(phi.coeffs.shape)
    nudged = MultilinearMap(phi.algebra, phi.k, phi.h, phi.coeffs * (1 + 1e-15 * noise))
    calls = []
    project = norms._AscentProblem.project

    def counted(self, coords):
        # one row per candidate the ascent tries
        calls.extend([1] * len(coords))
        return project(self, coords)

    monkeypatch.setattr(norms._AscentProblem, "project", counted)
    for t in (1, 2):
        runs = []
        for psi in (phi, nudged):
            calls.clear()
            runs.append((norm_estimate(psi, t=t, restarts=4, iters=10).value, len(calls)))
        (value, count), (nudged_value, nudged_count) = runs
        assert count == nudged_count
        assert abs(value - nudged_value) <= 1e-13 * value


def test_unit_witness_value_reads_the_chain_kernel(monkeypatch):
    phi = trace_example(2)
    monkeypatch.setattr(norms, "amplified_evaluate", lambda *args: 2.0 * amplified_evaluate(*args))
    report = russo_dye_check(phi, restarts=1, iters=1, trials=1)
    assert abs(report.unit_witness_value - 2.0 * report.unit_norm) <= 1e-12


def test_restart_sweeps_and_stops_are_reported():
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((5, 5, 1, 1)) + 1j * rng.standard_normal((5, 5, 1, 1))
    phi = MultilinearMap(Algebra([2, 1]), 2, 1, coeffs)
    est = norm_estimate(phi, t=1, restarts=4, iters=50, seed=0)
    # restarts 0 and 2 still climb after 50 sweeps; 1 and 3 stop on a sweep with no step
    assert est.restart_sweeps == [50, 45, 50, 46]
    assert est.restart_stops == ["iters", "converged", "iters", "converged"]
    report = est.to_dict()
    assert report["restart_values"] == est.restart_values and len(est.restart_values) == 4
    assert report["restart_sweeps"] == est.restart_sweeps
    assert report["restart_stops"] == est.restart_stops
    assert norm_estimate(phi, t=1, restarts=2, iters=0).restart_stops == ["iters", "iters"]
    one = MatrixOverAlgebra.identity(phi.algebra, 1)
    pinned = norm_estimate(phi, t=1, restarts=2, iters=5, pinned={0: one, 1: one})
    assert pinned.restart_sweeps == [1, 1] and pinned.restart_stops == ["converged", "converged"]


@pytest.mark.parametrize("check", [cb_russo_dye_check, cb_16_bound_check])
def test_cb_checks_reject_a_highest_level_below_one(check, monkeypatch):
    # rejected before any dilation or batch sizing
    monkeypatch.setattr(norms, "dilate", None)
    block, _ = random_icp(Algebra([1, 1]), 3, 1, 1, seed=0)
    for t_max in (0, -1):
        with pytest.raises(ValueError, match="highest level must be >= 1"):
            check(block, t_max=t_max)


@pytest.mark.parametrize("knobs", [{"restarts": 0}, {"iters": -1}])
def test_cb_russo_dye_checks_the_ascent_knobs_before_dilating(knobs, monkeypatch):
    # a malformed call paid for the whole dilation before its input error
    def reached(*args, **kwargs):
        raise AssertionError("dilate reached")

    monkeypatch.setattr(norms, "dilate", reached)
    block, _ = random_icp(Algebra([1, 1]), 3, 1, 1, seed=0)
    with pytest.raises(ValueError, match="need at least one restart|iters must be >= 0"):
        cb_russo_dye_check(block, **knobs)


def test_norm_estimate_rejects_negative_iters():
    # -1 ran no sweep and reported "iters": -1; 0 (the starts only) stays legal
    phi = trace_example(2)
    with pytest.raises(ValueError, match="iters must be >= 0, got -1"):
        norm_estimate(phi, t=1, restarts=1, iters=-1)
    assert norm_estimate(phi, t=1, restarts=1, iters=0).restart_sweeps == [0]


@pytest.mark.parametrize(
    "blocks, k, n, levels, restarts, iters",
    [
        ((2,), 3, 2, (1, 2), 8, 20),  # block-n2's `russo-dye --cb --tmax 2`
        ((2,), 5, 1, (1, 2, 3), 8, 20),  # plain-n1's `russo-dye --cb --tmax 3`
        ((3,), 4, 1, (1,), 2, 5),  # dilate-wide's `russo-dye --restarts 2 --iters 5`
    ],
    ids=["block-n2", "plain-n1", "dilate-wide"],
)
def test_reused_operator_buffers_keep_estimate_reports(monkeypatch, blocks, k, n, levels, restarts, iters):
    block, _ = random_icp(Algebra(list(blocks)), k, n, 2, seed=0)
    slot_operator, buffered_calls = multimap.ChainGrid.slot_operator, []

    def reports(keep_buffers):
        def operator(self, t, stacks, slot, out=None):
            buffered_calls.append(out is not None)
            return slot_operator(self, t, stacks, slot, out if keep_buffers else None)

        monkeypatch.setattr(multimap.ChainGrid, "slot_operator", operator)
        return [serialize.dumps(norm_estimate(block, t, restarts, iters, seed=0).to_dict()) for t in levels]

    assert reports(keep_buffers=True) == reports(keep_buffers=False)
    assert buffered_calls and all(buffered_calls)
