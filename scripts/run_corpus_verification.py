#!/usr/bin/env python3
"""Build a seeded corpus of dilation-generated block maps and run the full
verification battery: exhaustive invariance, Gram positivity, dilation
round-trips, minimality and unitary equivalence, and the amplified-norm
attainment inequalities.

The standard-form triple of the dilation and that of the generator's
provenance triple must have the same layout and agree within CANONICAL_TOL:
the uniqueness theorem makes the two one triple.  Both must have images that
are exactly 0/1 matrices, and every law residual of both must be exactly 0.0.

Every entry map must be invariant by an exhaustive check. The block map must
be too where block invariance can hold (n = 1 or k <= 2); elsewhere its
report is printed as information.  Every grid must be symmetric
(``block_is_symmetric``).  The generator checks neither property: both hold
by construction, and this script and the tier-1 tests assert them.

Prints one line per map and a summary table of worst residuals; exits
nonzero if any check fails its tolerance.  Each map line's ``short=`` field,
and the table's ``norm_shortfall`` row, give the largest relative shortfall
(unit - estimate) / unit of the map's norm estimates over the levels: how
far below the unit value, the cb norm by the theorem, the estimator stops.
They are information only and fail nothing.

Usage:
    python scripts/run_corpus_verification.py [--seed 0] [--tmax 2]
        [--restarts 2] [--iters 8] [--falsifier-trials 0] [--skip-norms]
"""

import argparse
import sys
import time

import numpy as np

from icpmaps.factory import build_corpus
from icpmaps.gram import build_gram, gram_is_psd, positivity_falsify
from icpmaps.norms import norm_estimate, unit_norm
from icpmaps.stinespring import dilate, minimal_compress, unitary_equivalence, verify_dilation

CANONICAL_TOL = 1e-12  # max entry difference between the two standard-form triples


def canonical_distance(t1, t2) -> float:
    """Largest entry difference of the reps and V of two triples (inf when kappa differs)."""
    if t1.kappa != t2.kappa:
        return np.inf
    return max(float(np.abs(x - y).max(initial=0.0)) for x, y in zip(t1.reps + t1.V, t2.reps + t2.V))


def exact_images(triple) -> bool:
    """Whether every representation image is a matrix of exact 0s and 1s."""
    return all(np.isin(images, (0.0, 1.0)).all() for images in triple.reps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tmax", type=int, default=2, help="highest amplification level for norms")
    parser.add_argument("--restarts", type=int, default=2)
    parser.add_argument("--iters", type=int, default=8)
    parser.add_argument("--falsifier-trials", type=int, default=0,
                        help="extra admissible-tuple trials per level (0 = skip)")
    parser.add_argument("--skip-norms", action="store_true")
    args = parser.parse_args()

    t_start = time.perf_counter()
    corpus = build_corpus(seed=args.seed)
    print(f"corpus: {len(corpus)} maps (seed {args.seed})")
    worst = {
        "invariance": 0.0,
        "gram_min_eig": 0.0,
        "reconstruction": 0.0,
        "structural": 0.0,
        "isometry": 0.0,
        "intertwining": 0.0,
        "v_match": 0.0,
        "canonical": 0.0,
        "smallest_kept": np.inf,
        "norm_gap": -np.inf,
        "norm_shortfall": -np.inf,
    }
    failures = []
    for entry in corpus:
        block = entry.block_map
        entry_reports = [phi.invariance_report() for row in block.entries for phi in row]
        block_report = block.block_invariance_report()
        block_required = entry.n == 1 or entry.k <= 2
        held = entry_reports + ([block_report] if block_required else [])
        worst["invariance"] = max([worst["invariance"]] + [r["max_deviation"] for r in held])
        if not all(r["exhaustive"] and r["invariant"] for r in held):
            failures.append((entry.name, "invariance"))
        if not block_report["exhaustive"]:
            failures.append((entry.name, "block invariance report sampled"))
        invariance = (
            f"inv={sum(r['invariant'] for r in entry_reports)}/{len(entry_reports)} "
            f"block={'pass' if block_report['invariant'] else 'fail'}{'' if block_required else '(info)'}"
        )
        if not block.block_is_symmetric():  # its Gram is not Hermitian, so nothing below applies
            failures.append((entry.name, "grid not symmetric"))
            print(f"  {entry.name:<22} {invariance:<24} sym=fail")
            continue
        gram = build_gram(block)
        psd, min_eig = gram_is_psd(gram)
        rel_eig = min_eig / max(1.0, gram.spectral_norm())
        worst["gram_min_eig"] = min(worst["gram_min_eig"], rel_eig)
        if not psd:
            failures.append((entry.name, "gram not PSD"))
            continue
        triple = dilate(block)
        report = verify_dilation(block, triple)
        scale = 1.0 + block.coefficient_scale()
        worst["reconstruction"] = max(worst["reconstruction"], report.reconstruction / scale)
        worst["structural"] = max(worst["structural"], report.max_structural())
        if report.reconstruction > 1e-8 * scale or report.max_structural() > 1e-9:
            failures.append((entry.name, "round-trip residual"))
        t1, walk1 = minimal_compress(triple)
        t2, walk2 = minimal_compress(entry.triple)
        canonical = canonical_distance(t1, t2)
        worst["canonical"] = max(worst["canonical"], canonical)
        kept = [w.smallest_kept for w in (walk1, walk2) if w.smallest_kept is not None]
        worst["smallest_kept"] = min([worst["smallest_kept"]] + kept)
        if canonical > CANONICAL_TOL:
            failures.append((entry.name, f"standard-form triples differ by {canonical:.1e}"))
        if not np.array_equal(t1.layout, t2.layout):
            failures.append((entry.name, f"layouts differ: {t1.layout.ravel()} vs {t2.layout.ravel()}"))
        for label, standard in (("dilation", t1), ("provenance", t2)):
            if not exact_images(standard):
                failures.append((entry.name, f"{label} standard form has images that are not exactly 0/1"))
            laws = verify_dilation(block, standard)
            if laws.max_structural() != 0.0:
                failures.append((entry.name, f"{label} standard form has a law residual {laws.max_structural():.1e}"))
        eq = unitary_equivalence(t1, t2)
        worst["isometry"] = max(worst["isometry"], eq.isometry)
        worst["intertwining"] = max(worst["intertwining"], eq.intertwining)
        worst["v_match"] = max(worst["v_match"], eq.v_match)
        if not eq.within():
            failures.append((entry.name, "uniqueness residual"))
        line = (
            f"  {entry.name:<22} {invariance:<24} sym=pass "
            f"kappa={triple.kappa:<3} grambound={rel_eig:+.1e} "
            f"recon={report.reconstruction:.1e} equiv={max(eq.isometry, eq.intertwining, eq.v_match):.1e} "
            f"canonical={canonical:.1e} layout={t1.layout.ravel().tolist()}"
        )
        if args.falsifier_trials:
            ce = positivity_falsify(
                block, levels=tuple(range(1, args.tmax + 1)),
                trials=args.falsifier_trials, seed=entry.seed,
            )
            if ce is not None:
                failures.append((entry.name, f"falsifier fired at level {ce.level}"))
            line += f" falsifier={'FIRED' if ce else 'silent'}"
        if not args.skip_norms:
            u_norm = unit_norm(block)
            values = []
            for t in range(1, args.tmax + 1):
                est = norm_estimate(block, t=t, restarts=args.restarts, iters=args.iters, seed=0)
                values.append(est.value)
                if est.value > u_norm * (1 + 1e-6):
                    failures.append((entry.name, f"norm estimate exceeds unit value at level {t}"))
            gap = max(values) - u_norm
            # how far below the unit value, the cb norm by the theorem, the estimates stop
            short = (u_norm - min(values)) / u_norm if u_norm > 0 else 0.0
            worst["norm_gap"] = max(worst["norm_gap"], gap)
            worst["norm_shortfall"] = max(worst["norm_shortfall"], short)
            line += f" unit={u_norm:.3f} gap={gap:+.1e} short={short:.1e}"
        print(line)

    print(f"\nworst residuals over the corpus ({time.perf_counter() - t_start:.1f}s):")
    for key, value in worst.items():
        print(f"  {key:<16} {value:+.3e}")
    if failures:
        print(f"\n{len(failures)} FAILURES:")
        for name, what in failures:
            print(f"  {name}: {what}")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
