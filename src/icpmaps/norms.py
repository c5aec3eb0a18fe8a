"""Operator-norm estimation for (block) multilinear maps and the norm
attainment checks.

The estimator is an alternating maximization: all slots but one are frozen,
the value is then linear in the free slot, and the largest singular value
is ascended by gradient steps (via its singular-vector pair) followed by
projection onto the operator-norm unit ball of the amplified algebra
(per-block singular value clip).  The returned value is certified only as a
LOWER bound of the true supremum; every theorem check here is therefore a
one-sided inequality with an explicit margin.

The ascent runs on the free slot's linear operator
(``ChainGrid.slot_operator``), built once per (sweep, slot) from the chains
before and after the slot: the gradient is one product with it, and so is
the value of every backtracking candidate, so no chain over all k slots is
formed between a batch's start and its end.  One full SVD per candidate
batch gives sigma and the singular pair of the next gradient.  The chain
kernel evaluates each restart's start and final point, and a restart's
value is the kernel's sigma at its final point.

Restarts ascend in lockstep as rows of batches sized by the longest open
chain and the slot operator: each step of a sweep is one stacked SVD,
projection and operator product over the rows still ascending.  Each row is
its own slice of every stacked operation, so every restart ends where it
would running alone, bit for bit, and the estimate records per restart its
value, the sweeps it ran and why it stopped.

For scalar-valued maps on commutative algebras the supremum is attained on
the torus of unimodular coordinates and each slot has one removable global
phase, which yields the independent dense-grid oracle used to calibrate the
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    Amplification,
    MatrixOverAlgebra,
    amplified_algebra,
    element_norm,
    gaussian_blocks,
    project_unit_ball,
)
from .blockmap import BlockMultilinearMap, as_block_map
from .gram import positivity_falsify
from .multimap import MultilinearMap, amplified_evaluate
from .stinespring import DilationTriple, dilate
from .tolerances import RELATIVE_MARGIN, V_BOUND_TOL

BACKTRACK_STEPS = 12
# a step is taken only when it raises sigma by more than this relative amount,
# so last-bit round-off in the map cannot decide how long the ascent runs
ASCENT_RTOL = 1e-12


def unit_norm(phi) -> float:
    """Spectral norm of the value at the all-identities tuple."""
    return float(np.linalg.norm(as_block_map(phi).unit_value(), 2))


@dataclass
class NormEstimate:
    """A certified lower bound on the amplified norm, with its witness."""

    value: float
    level: int
    witness: list
    seed: int
    restarts: int
    iters: int
    restart_values: list = field(default_factory=list)
    restart_sweeps: list = field(default_factory=list)
    # per restart: "converged" after a sweep that accepted no step,
    # "iters" when the sweep cap stopped it
    restart_stops: list = field(default_factory=list)

    def witness_norms(self, amp: Amplification) -> list[float]:
        return [element_norm(amp.embed(x)) for x in self.witness]

    def to_dict(self) -> dict:
        from . import serialize

        return {
            "value": self.value,
            "level": self.level,
            "seed": self.seed,
            "restarts": self.restarts,
            "iters": self.iters,
            "restart_values": self.restart_values,
            "restart_sweeps": self.restart_sweeps,
            "restart_stops": self.restart_stops,
            "witness": [serialize.matrix_over_algebra_to_json(x) for x in self.witness],
        }


class _AscentProblem:
    """Alternating singular-value ascent at a fixed amplification level, on
    level-t matrices over M_n(A) (over A when n = 1), for rows of restarts
    at once: each slot holds a (rows, t, t, dim) coordinate stack."""

    def __init__(self, block: BlockMultilinearMap, t: int, pinned: dict):
        self.block = block
        self.t = t
        self.grid = block.chain_grid()
        self.amp = amplified_algebra(self.grid.arg_algebra, t)
        self.pinned = {slot: mat.coords for slot, mat in pinned.items()}
        self.free = [slot for slot in range(block.k) if slot not in pinned]

    def value(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        """Kernel values at rows of tuples, in batches of the kernel's row
        rule (``ChainGrid.batch_rows``)."""
        batch, rows = self.grid.batch_rows(self.t), len(mats[0])
        return np.concatenate([
            amplified_evaluate(self.block, self.t, [x[start : start + batch] for x in mats])
            for start in range(0, rows, batch)
        ])

    def project(self, coords: np.ndarray) -> np.ndarray:
        return self.amp.extract_blocks(project_unit_ball(self.amp.embed_coords(coords)))

    def random_starts(self, rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
        """Each slot's stack of starts: row r of the free slots drawn from
        ``rngs[r]`` as ``random_element`` draws them slot by slot, then
        projected; a pinned slot repeats its argument in every row."""
        normals = np.stack([rng.standard_normal((len(self.free), 2 * self.amp.algebra.dim)) for rng in rngs])
        starts = self.amp.extract_blocks(project_unit_ball(gaussian_blocks(self.amp.algebra, normals)))
        free = dict(zip(self.free, starts.swapaxes(0, 1)))
        return [
            free[slot] if slot in free else np.broadcast_to(self.pinned[slot], (len(rngs), *self.pinned[slot].shape))
            for slot in range(self.block.k)
        ]

    def slot_operator(self, mats: Sequence[np.ndarray], slot: int) -> np.ndarray:
        """Each row's value as a linear map of the coordinates in ``slot``,
        the other slots held at ``mats`` (``ChainGrid.slot_operator``)."""
        return self.grid.slot_operator(self.t, [self.grid.regroup(x) for x in mats], slot)

    def slot_values(self, op: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Values of each row's operator at its (t, t, dim) slot coordinates."""
        size = self.t * self.grid.n * self.grid.h
        return (self.grid.regroup(coords).reshape(len(coords), 1, -1) @ op).reshape(-1, size, size)

    def direction(self, op: np.ndarray, u: np.ndarray, vh: np.ndarray) -> np.ndarray:
        """d(sigma)/d(slot coords) of each row as a (rows, t, t, dim) stack
        (ascent direction), from the top singular pair (u, vh) of its value:
        the conjugate of ``op @ vec(conj(u) conj(vh))``."""
        rows, t_n = len(op), self.t * self.grid.n
        grad = op @ (u.conj()[:, :, None] * vh.conj()[:, None, :]).reshape(rows, -1, 1)
        return self.grid.ungroup(np.conj(grad).reshape(rows, t_n, -1, t_n))

    def ascend(self, restarts: range, seed: int, iters: int) -> tuple:
        """Ascend the restarts in lockstep, one row each, until each one
        stops: a row leaves the batch after a sweep that accepted no step.
        Each (sweep, free slot) builds the slot operator of the rows still
        ascending once, in two buffers the batch reuses; the gradient and
        every backtrack candidate's value are products with it, and one full
        SVD per candidate batch gives sigma and the singular pair of the next
        gradient.  The kernel runs only at the starts and at the final points,
        whose sigma is the restart's value.  Returns each slot's stack and,
        per row, sigma, the sweeps run and the stop reason."""
        mats = self.random_starts([np.random.default_rng([seed, r]) for r in restarts])
        # the slot operator reads regrouped stacks: each slot is regrouped once here,
        # and afterwards only the rows of the slot that moved
        grouped = [self.grid.regroup(x) for x in mats]
        u, s, vh = np.linalg.svd(self.value(mats))
        sigma, u, vh = s[:, 0], u[:, :, 0], vh[:, 0]
        sweeps = np.zeros(len(restarts), dtype=int)
        ascending = np.arange(len(restarts))
        # the slot operator's two operator-sized arrays, reused by every (sweep, slot):
        # a fresh pair each step would page-fault anew once no large free has raised
        # the allocator's threshold for mapping fresh pages
        size = len(restarts) * self.grid.operator_size(self.t)
        out = (np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128))
        for _ in range(iters):
            if not len(ascending):
                break
            sweeps[ascending] += 1
            improved = np.zeros(len(restarts), dtype=bool)
            for slot in self.free:
                op = self.grid.slot_operator(self.t, [x[ascending] for x in grouped], slot, out=out)
                direction = self.direction(op, u[ascending], vh[ascending])
                pending, step = np.arange(len(ascending)), 1.0
                for _ in range(BACKTRACK_STEPS):
                    rows = ascending[pending]
                    cand = self.project(mats[slot][rows] + step * direction[pending])
                    cand_u, cand_s, cand_vh = np.linalg.svd(self.slot_values(op, cand))
                    up = cand_s[:, 0] > sigma[rows] * (1.0 + ASCENT_RTOL)
                    taken = rows[up]
                    if len(taken):
                        mats[slot][taken] = cand[up]
                        grouped[slot][taken] = self.grid.regroup(cand[up])
                    sigma[taken], u[taken], vh[taken] = cand_s[up, 0], cand_u[up, :, 0], cand_vh[up, 0]
                    improved[taken] = True
                    # the operator keeps the rows still backtracking
                    pending, op = pending[~up], op[~up]
                    if not len(pending):
                        break
                    step /= 2.0
            ascending = ascending[improved[ascending]]
        stops = np.full(len(restarts), "converged", dtype=object)
        stops[ascending] = "iters"
        return mats, np.linalg.norm(self.value(mats), 2, axis=(1, 2)), sweeps, stops


def _check_ascent(restarts: int, iters: int) -> None:
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")


def norm_estimate(
    phi,
    t: int = 1,
    restarts: int = 16,
    iters: int = 30,
    seed: int = 0,
    pinned: dict | None = None,
) -> NormEstimate:
    """Best-of-restarts lower bound on the level-t norm.

    ``pinned`` maps slot indices to fixed arguments (as matrices over the
    map's argument algebra: A, or M_n(A) for a block map); those slots are
    held and never updated, which realizes the restricted searches used by
    the attainment theorems.  Restart r uses generator seed (seed, r), so
    doubling ``restarts`` never decreases the returned value.

    Restarts run as rows of batches of ``ChainGrid.operator_batch_rows(t)``,
    sized so that the longest open chain and the slot operator of every row
    fit in ``multimap.PROBE_BATCH_BYTES`` (1 MiB): the default 8 restarts of
    ``russo-dye --cb`` ascend as one batch on `--algebra 2 --k 5 --n 1 --h 2`
    up to t = 3, where 18 rows fit.  Each row is its own slice of every
    batched operation, so every restart ends where it would running alone,
    bit for bit.  A restart's value is the kernel's sigma at its final
    point, so the witness evaluates to the estimate exactly.
    """
    if t < 1:
        raise ValueError(f"level must be >= 1, got {t}")
    _check_ascent(restarts, iters)
    block = as_block_map(phi)
    pinned = dict(pinned or {})
    for slot, mat in pinned.items():
        if mat.algebra != block.chain_grid().arg_algebra or mat.t != t:
            raise ValueError(f"pinned argument for slot {slot} has the wrong shape")
    problem = _AscentProblem(block, t, pinned)
    batch = problem.grid.operator_batch_rows(t)
    runs = [
        problem.ascend(range(start, min(start + batch, restarts)), seed, iters)
        for start in range(0, restarts, batch)
    ]
    mats = [np.concatenate(stacks) for stacks in zip(*(run[0] for run in runs))]
    sigma, sweeps, stops = (np.concatenate(parts) for parts in zip(*(run[1:] for run in runs)))
    best = int(np.argmax(sigma))  # the first restart with the largest value
    return NormEstimate(
        value=float(sigma[best]),
        level=t,
        witness=[MatrixOverAlgebra(problem.grid.arg_algebra, x[best]) for x in mats],
        seed=seed,
        restarts=restarts,
        iters=iters,
        restart_values=sigma.tolist(),
        restart_sweeps=sweeps.tolist(),
        restart_stops=stops.tolist(),
    )


def brute_force_commutative_norm(phi: MultilinearMap, phases: int = 64) -> float:
    """Dense-grid supremum for scalar maps on commutative algebras.

    The maximum of |value| over operator-norm unit balls sits on the torus
    of unimodular coordinates, and a global phase per slot is irrelevant, so
    the grid runs over (dim - 1) relative phases per slot.
    """
    if phi.h != 1:
        raise ValueError("grid oracle requires scalar codomain (h = 1)")
    if not phi.algebra.is_commutative:
        raise ValueError("grid oracle requires a commutative algebra")
    d, k = phi.algebra.dim, phi.k
    n_grid = phases ** (d - 1)
    if n_grid**k > 5 * 10**7:
        raise ValueError("grid too large; reduce phases or arity")
    theta = 2.0 * np.pi * np.arange(phases) / phases
    ring = np.exp(1j * theta)
    grid = np.ones((n_grid, d), dtype=np.complex128)
    for combo_idx, combo in enumerate(np.ndindex(*(phases,) * (d - 1))):
        for coord, ph in enumerate(combo):
            grid[combo_idx, coord + 1] = ring[ph]
    out = phi.coeffs.reshape((d,) * k)
    for i in range(k):
        # after i contractions the first i axes index grids, slot axis sits at i
        out = np.tensordot(grid, out, axes=(1, i))
    return float(np.abs(out).max())


# -- theorem checks -------------------------------------------------------------


@dataclass
class RussoDyeReport:
    """One-sided norm attainment check at level 1 for positive invariant maps."""

    unit_norm: float
    estimate: NormEstimate
    margin: float
    passed: bool
    invariant: bool
    counterexample: object
    unit_witness_value: float

    @property
    def hypothesis_failure(self) -> bool:
        return (not self.invariant) or (self.counterexample is not None) or (not self.passed)

    def to_dict(self) -> dict:
        return {
            "unit_norm": self.unit_norm,
            "estimate": self.estimate.to_dict(),
            "margin": self.margin,
            "passed": self.passed,
            "invariant": self.invariant,
            "positivity_counterexample": None
            if self.counterexample is None
            else self.counterexample.to_dict(),
            "unit_witness_value": self.unit_witness_value,
            "hypothesis_failure": self.hypothesis_failure,
        }


def russo_dye_check(
    phi: MultilinearMap,
    seed: int = 0,
    restarts: int = 16,
    iters: int = 30,
    trials: int = 200,
) -> RussoDyeReport:
    """Check that the level-1 norm estimate does not exceed the unit value.

    The hypotheses (invariance, positivity) are probed first; an estimate
    above the unit norm is classified as a hypothesis failure with the
    witness attached, never as a refutation of the attainment statement.
    """
    if not isinstance(phi, MultilinearMap):
        raise TypeError("norm attainment check applies to plain multilinear maps")
    invariant = phi.is_invariant()
    counterexample = positivity_falsify(phi, levels=(1,), trials=trials, seed=seed)
    est = norm_estimate(phi, t=1, restarts=restarts, iters=iters, seed=seed)
    u_norm = unit_norm(phi)
    passed = est.value <= u_norm * (1.0 + RELATIVE_MARGIN)
    # the unit tuple through the chain kernel: a cross-check of unit_value()
    one = MatrixOverAlgebra.identity(phi.algebra, 1)
    unit_witness_value = float(np.linalg.norm(amplified_evaluate(phi, 1, [one] * phi.k), 2))
    return RussoDyeReport(
        unit_norm=u_norm,
        estimate=est,
        margin=u_norm - est.value,
        passed=passed,
        invariant=invariant,
        counterexample=counterexample,
        unit_witness_value=unit_witness_value,
    )


@dataclass
class CbRussoDyeReport:
    """Per-level norm estimates against the unit value and the dilation bound."""

    unit_norm: float
    v_bound: float
    estimates: list
    per_level_ok: list
    v_bound_consistent: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "unit_norm": self.unit_norm,
            "v_bound": self.v_bound,
            "estimates": [e.to_dict() for e in self.estimates],
            "per_level_ok": self.per_level_ok,
            "v_bound_consistent": self.v_bound_consistent,
            "passed": self.passed,
        }


def cb_russo_dye_check(
    phi,
    triple: DilationTriple | None = None,
    t_max: int = 3,
    restarts: int = 4,
    iters: int = 10,
    seed: int = 0,
) -> CbRussoDyeReport:
    """Estimates at levels 1..t_max never exceed the unit value, which in turn
    matches the squared norm of the dilation's V operators.

    Caller guarantees the hypotheses; passing a triple (or letting this
    function dilate) supplies the CP certificate.
    """
    if t_max < 1:
        raise ValueError(f"highest level must be >= 1, got {t_max}")
    _check_ascent(restarts, iters)  # before the dilation, whose cost a malformed call should not pay
    block = as_block_map(phi)
    if triple is None:
        triple = dilate(block)
    u_norm = unit_norm(block)
    v_bound = triple.unit_norm_bound()
    estimates = [
        norm_estimate(block, t=t, restarts=restarts, iters=iters, seed=seed)
        for t in range(1, t_max + 1)
    ]
    per_level = [e.value <= u_norm * (1.0 + RELATIVE_MARGIN) for e in estimates]
    consistent = abs(v_bound - u_norm) <= V_BOUND_TOL * (1.0 + u_norm)
    return CbRussoDyeReport(
        unit_norm=u_norm,
        v_bound=v_bound,
        estimates=estimates,
        per_level_ok=per_level,
        v_bound_consistent=consistent,
        passed=all(per_level) and consistent,
    )


@dataclass
class CbBoundReport:
    unit_norm: float
    bound: float
    estimates: list
    per_level_ok: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "unit_norm": self.unit_norm,
            "bound": self.bound,
            "estimates": [e.to_dict() for e in self.estimates],
            "per_level_ok": self.per_level_ok,
            "passed": self.passed,
        }


def cb_16_bound_check(
    phi,
    t_max: int = 2,
    restarts: int = 4,
    iters: int = 10,
    seed: int = 0,
) -> CbBoundReport:
    """All level estimates stay below 2^4 times the unit value (arity 3 or 4)."""
    if t_max < 1:
        raise ValueError(f"highest level must be >= 1, got {t_max}")
    block = as_block_map(phi)
    if block.k not in (3, 4):
        raise ValueError(f"the 2^4 bound applies to arity 3 or 4, got {block.k}")
    u_norm = unit_norm(block)
    bound = 16.0 * u_norm
    estimates = [
        norm_estimate(block, t=t, restarts=restarts, iters=iters, seed=seed)
        for t in range(1, t_max + 1)
    ]
    per_level = [e.value <= bound * (1.0 + RELATIVE_MARGIN) for e in estimates]
    return CbBoundReport(
        unit_norm=u_norm,
        bound=bound,
        estimates=estimates,
        per_level_ok=per_level,
        passed=all(per_level),
    )
