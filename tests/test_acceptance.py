"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 7 and 8 share the per-level norm estimates
through a module cache so the corpus sweep runs once.
"""

import time

import numpy as np

from icpmaps.algebra import Algebra
from icpmaps.factory import (
    noninvariant_block_example,
    noninvariant_block_instance,
    point_evaluation_example,
    schur_block_map,
    trace_example,
    worked_level2_tuple,
)
from icpmaps.gram import admissibility_report, build_gram, gram_is_psd
from icpmaps.multimap import MultilinearMap, amplified_evaluate
from icpmaps.norms import brute_force_commutative_norm, norm_estimate, unit_norm
from icpmaps.stinespring import dilate, minimal_compress, unitary_equivalence, verify_dilation
from icpmaps.tolerances import RELATIVE_MARGIN
from icpmaps.factory import commutative_invariant_family

_CACHE: dict = {}


def _report(num, name, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({elapsed:.2f}s < {budget:.0f}s){suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def test_c01_worked_level2_arithmetic():
    start = time.perf_counter()
    phi = point_evaluation_example(2)
    mats = worked_level2_tuple()
    value = amplified_evaluate(phi, 2, mats)
    exact = value[0, 0] == -1.0
    adm = admissibility_report(mats)
    elapsed = time.perf_counter() - start
    ok = exact and adm["admissible"] is False
    _report(1, "worked level-2 entry is exactly -1, tuple inadmissible", ok, elapsed, 1.0,
            f"entry={value[0, 0]}, admissible={adm['admissible']}")


def test_c02_noninvariant_grid_counterexample():
    start = time.perf_counter()
    block = noninvariant_block_example()
    entries_ok = all(all(row) for row in block.entries_invariant())
    block_fails = not block.block_is_invariant()
    inst = noninvariant_block_instance()
    lhs = block.block_evaluate(inst["lhs"])
    rhs = block.block_evaluate(inst["rhs"])
    unit = block.entries[0][0].unit_value()
    gap_ok = np.linalg.norm(lhs - rhs, 2) >= 0.5 * np.linalg.norm(unit, 2)
    elapsed = time.perf_counter() - start
    _report(2, "entrywise-invariant grid fails block invariance", entries_ok and block_fails and gap_ok,
            elapsed, 5.0, f"|lhs-rhs|={np.linalg.norm(lhs - rhs, 2):.3f}")


def test_c03_gram_psd_on_corpus(corpus):
    start = time.perf_counter()
    shapes = {(e.k, e.n, e.d, e.h) for e in corpus}
    spanning = all(
        (k, n, d, h) in shapes for k in (1, 2, 3, 4) for n in (1, 2) for d in (2, 4) for h in (1, 2)
    )
    worst = 0.0
    for entry in corpus:
        gram = build_gram(entry.block_map)
        ok, min_eig = gram_is_psd(gram, tol=1e-9 * max(1.0, gram.norm()))
        assert ok, entry.name
        worst = min(worst, min_eig / max(1.0, gram.norm()))
    elapsed = time.perf_counter() - start
    _report(3, f"Gram PSD on {len(corpus)} seeded instances", spanning and len(corpus) >= 50,
            elapsed, 120.0, f"worst relative min eig {worst:.2e}")


def test_c04_dilation_roundtrip(corpus):
    start = time.perf_counter()
    worst_recon, worst_struct = 0.0, 0.0
    triples = {}
    for entry in corpus:
        triple = dilate(entry.block_map)
        triples[entry.name] = triple
        rep = verify_dilation(entry.block_map, triple)
        scale = 1.0 + entry.block_map.coefficient_scale()
        assert rep.reconstruction <= 1e-8 * scale, entry.name
        for res in (rep.multiplicativity, rep.star, rep.unitality, rep.commutation):
            assert res <= 1e-9, entry.name
        worst_recon = max(worst_recon, rep.reconstruction / scale)
        worst_struct = max(worst_struct, rep.max_structural())
    _CACHE["dilated"] = triples
    elapsed = time.perf_counter() - start
    _report(4, "dilate/verify round-trip on the corpus", True, elapsed, 300.0,
            f"worst recon {worst_recon:.2e}, worst structural {worst_struct:.2e}")


def test_c05_minimality_and_uniqueness(corpus):
    start = time.perf_counter()
    worst = {"isometry": 0.0, "intertwining": 0.0, "v_match": 0.0}
    for entry in corpus:
        dilated = _CACHE.get("dilated", {}).get(entry.name) or dilate(entry.block_map)
        t1, _ = minimal_compress(dilated)
        t2, _ = minimal_compress(entry.triple)
        eq = unitary_equivalence(t1, t2)
        assert eq.isometry <= 1e-9, entry.name
        assert eq.intertwining <= 1e-7, entry.name
        assert eq.v_match <= 1e-7, entry.name
        worst["isometry"] = max(worst["isometry"], eq.isometry)
        worst["intertwining"] = max(worst["intertwining"], eq.intertwining)
        worst["v_match"] = max(worst["v_match"], eq.v_match)
    elapsed = time.perf_counter() - start
    _report(5, "independent minimal triples unitarily equivalent", True, elapsed, 120.0,
            f"worst {worst}")


def test_c06_norm_attainment_level_one():
    start = time.perf_counter()
    fixtures = [trace_example(2), trace_example(3), point_evaluation_example(2), point_evaluation_example(3)]
    details = []
    for phi in fixtures:
        est = norm_estimate(phi, t=1, restarts=16, iters=30, seed=0)
        u_norm = unit_norm(phi)
        assert est.value <= u_norm * (1.0 + RELATIVE_MARGIN)
        unit_attained = abs(float(np.linalg.norm(phi.unit_value(), 2)) - u_norm) <= 1e-9
        assert unit_attained
        details.append(round(est.value, 9))
    elapsed = time.perf_counter() - start
    _report(6, "norm attained at the unit tuple (level 1)", True, elapsed, 60.0,
            f"estimates {details}")


def test_c07_cb_norm_attainment(corpus):
    start = time.perf_counter()
    estimates_cache = {}
    worst_gap = -np.inf
    for entry in corpus:
        triple = _CACHE.get("dilated", {}).get(entry.name) or dilate(entry.block_map)
        u_norm = unit_norm(entry.block_map)
        v_bound = triple.unit_norm_bound()
        assert abs(v_bound - u_norm) <= 1e-8 * (1.0 + u_norm), entry.name
        per_level = []
        for t in (1, 2, 3):
            est = norm_estimate(entry.block_map, t=t, restarts=2, iters=8, seed=0)
            assert est.value <= u_norm * (1.0 + RELATIVE_MARGIN), (entry.name, t, est.value, u_norm)
            per_level.append(est)
            worst_gap = max(worst_gap, est.value - u_norm)
        estimates_cache[entry.name] = (u_norm, per_level)
    _CACHE["estimates"] = estimates_cache
    elapsed = time.perf_counter() - start
    _report(7, "amplified estimates never exceed the unit value", True, elapsed, 300.0,
            f"worst estimate-unit gap {worst_gap:.2e}")


def test_c08_sixteen_fold_bound(corpus):
    start = time.perf_counter()
    checked = 0
    cache = _CACHE.get("estimates", {})
    for entry in corpus:
        if entry.k not in (3, 4):
            continue
        if entry.name in cache:
            u_norm, estimates = cache[entry.name]
        else:
            u_norm = unit_norm(entry.block_map)
            estimates = [norm_estimate(entry.block_map, t=t, restarts=2, iters=8, seed=0) for t in (1, 2)]
        for est in estimates:
            assert est.value <= 16.0 * u_norm * (1.0 + RELATIVE_MARGIN), entry.name
        checked += 1
    elapsed = time.perf_counter() - start
    _report(8, "2^4 bound for arity 3 and 4", checked >= 20, elapsed, 120.0,
            f"{checked} maps checked")


def test_c09_symmetry(corpus):
    start = time.perf_counter()
    for entry in corpus:
        assert entry.block_map.block_is_symmetric(tol=1e-9 * (1.0 + entry.block_map.coefficient_scale())), entry.name
    for phi in (trace_example(2), trace_example(3), point_evaluation_example(2), point_evaluation_example(3)):
        assert phi.is_symmetric(tol=1e-9 * (1.0 + phi.coefficient_scale()))
    elapsed = time.perf_counter() - start
    _report(9, "invariant positive corpus and fixtures are symmetric", True, elapsed, 30.0)


def test_c10_schur_choi_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 2
    psd_count = 0
    for trial in range(20):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = z @ z.conj().T if trial % 2 == 0 else z + z.conj().T
        lam_psd = bool(np.linalg.eigvalsh(lam).min() >= -1e-12)
        psd_count += lam_psd
        gram_psd, _ = gram_is_psd(build_gram(schur_block_map(lam)))
        choi = np.zeros((n * n, n * n), dtype=complex)
        for u in range(n):
            for v in range(n):
                e_uv = np.zeros((n, n), dtype=complex)
                e_uv[u, v] = 1.0
                choi[u * n : (u + 1) * n, v * n : (v + 1) * n] = lam * e_uv
        choi_psd = bool(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min() >= -1e-10)
        assert gram_psd == lam_psd == choi_psd
    elapsed = time.perf_counter() - start
    _report(10, "Schur multiplier CP iff pattern PSD (Gram + Choi oracle)",
            0 < psd_count < 20, elapsed, 30.0, f"{psd_count}/20 PSD patterns")


def test_c11_oracle_vs_ascent():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    fixtures = [point_evaluation_example(2)]
    neg = MultilinearMap(Algebra([1, 1]), 3, 1, -point_evaluation_example(2).coeffs)
    fixtures.append(neg)
    for _ in range(4):
        fixtures.append(commutative_invariant_family(rng.uniform(0.1, 1.0, size=(2, 2))))
    for _ in range(4):
        coeffs = rng.standard_normal((2, 2, 2, 1, 1)) + 1j * rng.standard_normal((2, 2, 2, 1, 1))
        fixtures.append(MultilinearMap(Algebra([1, 1]), 3, 1, coeffs))
    worst_rel = 0.0
    for phi in fixtures:
        est = norm_estimate(phi, t=1, restarts=16, iters=30, seed=0)
        oracle = brute_force_commutative_norm(phi, phases=64)
        rel = abs(est.value - oracle) / max(oracle, 1e-12)
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.05, (est.value, oracle)
    elapsed = time.perf_counter() - start
    _report(11, "grid oracle agrees with ascent within 5% on 10 fixtures", True, elapsed, 120.0,
            f"worst relative gap {worst_rel:.2%}")
