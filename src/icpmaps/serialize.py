"""JSON forms for every on-disk object.

Complex numbers are [re, im] pairs of doubles; matrices are row-major
nested lists.  In memory a complex array leaves the ``*_to_json`` helpers
as one float64 array whose last axis holds (re, im), and :func:`dumps`
writes it as those nested lists.  Loaders validate shapes and raise
:class:`SpecFormatError` so the CLI can map malformed input to its own exit
code.
"""

from __future__ import annotations

import itertools
import json
import numbers

import numpy as np

from .algebra import Algebra, AlgebraElement, MatrixOverAlgebra
from .blockmap import BlockMultilinearMap
from .errors import SpecFormatError
from .multimap import MultilinearMap


def dumps(obj) -> str:
    """Deterministic JSON: ``json.dumps(obj, sort_keys=True, indent=2)`` and a
    trailing newline, with every float64 ndarray in ``obj`` read as its
    ``tolist()``.  Anything else json rejects raises TypeError there."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_array_list) + "\n"


def _array_list(o) -> list:
    if isinstance(o, np.ndarray) and o.dtype == np.float64:
        return o.tolist()
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


# -- scalars / matrices -----------------------------------------------------


def json_int(value, what: str) -> int:
    """An integer field as JSON writes one: booleans, floats (also 3.0) and
    numeric strings are refused.  ``what`` names the field in the message."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise SpecFormatError(f"{what} is not an integer: {value!r}")
    return int(value)


def json_arity(value, what: str) -> int:
    """The arity k of a map, a triple or a generator spec, refused outside
    [1, 63) before any arithmetic with it: the coefficient tensor has k + 2
    axes, and numpy allows 64.  ``what`` names the field in the message."""
    k = json_int(value, what)
    if not 1 <= k < 63:
        raise SpecFormatError(f"{what} must be in [1, 63), got {k}")
    return k


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def matrix_to_json(mat) -> np.ndarray:
    """A complex array of any shape (a matrix, a vector, a coefficient
    tensor) as a float64 copy with a trailing (re, im) axis."""
    mat = np.array(mat, dtype=np.complex128, order="C")
    return mat.view(np.float64).reshape(mat.shape + (2,))


def matrix_from_json(data, shape=None, what: str = "matrix") -> np.ndarray:
    """Nested [re, im] pairs as a complex128 array of ``shape`` (any matrix
    when None), from one conversion that infers the entries' type; the
    complex view keeps every double as written, -0.0 and infinities
    included.  Strings, nulls and booleans, also among numbers, are
    refused.  ``what`` names the array in error messages."""
    try:
        entries = np.asarray(data)
    except ValueError as exc:  # ragged lists
        raise SpecFormatError(f"malformed {what}: {exc}") from exc
    if entries.dtype.kind in "USb":
        kind = "boolean" if entries.dtype.kind == "b" else "string"
        raise SpecFormatError(f"malformed {what}: {kind} entries, expected numbers")
    if entries.dtype.kind == "O":  # a null, an integer beyond int64 or a non-list among the numbers
        _check_leaves(data, what)
    elif entries.ndim:  # a boolean beside numbers reads as 0 or 1: one C-speed pass over the leaves
        leaves = data
        for _ in range(entries.ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if bool in map(type, leaves):
            raise SpecFormatError(f"malformed {what}: bool entry")
    try:
        pairs = np.ascontiguousarray(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecFormatError(f"malformed {what}: {exc}") from exc
    fits = pairs.ndim == 3 if shape is None else pairs.shape[:-1] == tuple(shape)
    if pairs.shape[-1:] != (2,) or not fits:
        expected = "(rows, cols, 2)" if shape is None else tuple(shape) + (2,)
        raise SpecFormatError(f"{what} of [re, im] pairs has shape {pairs.shape}, expected {expected}")
    return pairs.view(np.complex128)[..., 0]


def finite(x: np.ndarray, what: str) -> np.ndarray:
    """x, refused when an entry is NaN or infinite.  ``what`` names the field."""
    if not np.isfinite(x).all():
        raise SpecFormatError(f"{what} has a non-finite entry (NaN or infinity)")
    return x


def _check_leaves(node, what: str) -> None:
    """Refuse a null, a string or a boolean anywhere in nested lists."""
    if isinstance(node, list):
        for item in node:
            _check_leaves(item, what)
    elif node is None or isinstance(node, (str, bool)):
        raise SpecFormatError(f"malformed {what}: {'null' if node is None else type(node).__name__} entry")


# -- algebra / elements -------------------------------------------------------


def algebra_to_json(algebra: Algebra) -> dict:
    return {"blocks": list(algebra.block_dims)}


def algebra_from_json(data) -> Algebra:
    if not isinstance(data, dict) or "blocks" not in data:
        raise SpecFormatError("algebra spec must be an object with a 'blocks' list")
    blocks = data["blocks"]
    if (
        not isinstance(blocks, list)
        or not blocks
        or any(not isinstance(b, int) or isinstance(b, bool) or b < 1 for b in blocks)
    ):
        raise SpecFormatError(f"'blocks' must be a non-empty list of positive integers, got {blocks!r}")
    return Algebra(blocks)


def element_to_json(el: AlgebraElement) -> list:
    return [matrix_to_json(blk) for blk in el.blocks]


def element_from_json(algebra: Algebra, data) -> AlgebraElement:
    if not isinstance(data, list) or len(data) != algebra.n_blocks:
        raise SpecFormatError(f"element must list {algebra.n_blocks} blocks")
    blocks = [matrix_from_json(blk, (d, d)) for blk, d in zip(data, algebra.block_dims)]
    return AlgebraElement(algebra, blocks)


def matrix_over_algebra_to_json(mat: MatrixOverAlgebra) -> dict:
    return {
        "algebra": algebra_to_json(mat.algebra),
        "t": mat.t,
        "entries": [
            [element_to_json(mat.entry(i, j)) for j in range(mat.t)] for i in range(mat.t)
        ],
    }


def matrix_over_algebra_from_json(data) -> MatrixOverAlgebra:
    try:
        algebra = algebra_from_json(data["algebra"])
        t = json_int(data["t"], "matrix-over-algebra field 't'")
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise SpecFormatError(f"malformed matrix-over-algebra: {exc}") from exc
    if len(entries) != t or any(len(row) != t for row in entries):
        raise SpecFormatError("entries grid does not match t")
    grid = [[element_from_json(algebra, cell) for cell in row] for row in entries]
    return MatrixOverAlgebra.from_entries(algebra, grid)


# -- maps ---------------------------------------------------------------------


def map_to_json(phi: MultilinearMap) -> dict:
    return {
        "algebra": algebra_to_json(phi.algebra),
        "k": phi.k,
        "h": phi.h,
        "coeffs": matrix_to_json(phi.coeffs),
    }


def map_from_json(data) -> MultilinearMap:
    try:
        algebra = algebra_from_json(data["algebra"])
        k = json_arity(data["k"], "'k'")
        h = json_int(data["h"], "'h'")
        raw = data["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed map spec: {exc}") from exc
    if h < 1:
        raise SpecFormatError(f"codomain dimension must be >= 1, got h={h}")
    coeffs = finite(matrix_from_json(raw, (algebra.dim,) * k + (h, h), "map coefficients"), "map spec field 'coeffs'")
    return MultilinearMap(algebra, k, h, coeffs)


def block_to_json(block: BlockMultilinearMap) -> dict:
    return {
        "n": block.n,
        "entries": [map_to_json(phi) for row in block.entries for phi in row],
    }


def block_from_json(data) -> BlockMultilinearMap:
    try:
        n = json_int(data["n"], "'n'")
        flat = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed block spec: {exc}") from exc
    if not isinstance(flat, list) or len(flat) != n * n:
        got = len(flat) if isinstance(flat, list) else type(flat).__name__
        raise SpecFormatError(f"block spec needs a list of {n * n} entry maps (row-major), got {got}")
    maps = [map_from_json(item) for item in flat]
    grid = [maps[i * n : (i + 1) * n] for i in range(n)]
    return BlockMultilinearMap(grid)


def load_map_spec(data):
    """Dispatch a JSON object to the right loader.

    Generator specs carry a 'kind'; block specs carry 'n' + 'entries';
    plain map specs carry 'coeffs'.
    """
    if not isinstance(data, dict):
        raise SpecFormatError("spec must be a JSON object")
    if "kind" in data:
        from . import factory

        return factory.from_generator_spec(data)
    if "entries" in data and "n" in data:
        return block_from_json(data)
    if "coeffs" in data:
        return map_from_json(data)
    raise SpecFormatError("spec is neither a generator, block map, nor map spec")


# -- dilation triples -----------------------------------------------------------


def triple_to_json(triple, residuals: dict | None = None) -> dict:
    """A standard-form triple (``DilationTriple.is_standard``) as its layout,
    mu over the block tuples in C order, and V; any other triple in the
    general form, its images under every basis element and V."""
    out = {
        "algebra": algebra_to_json(triple.algebra),
        "k": triple.k,
        "n": triple.n,
        "h": triple.h,
        "kappa": triple.kappa,
        "rank_tol": triple.rank_tol,
        "V": [matrix_to_json(vj) for vj in triple.V],
        "residuals": residuals or {},
    }
    if triple.is_standard():
        out["layout"] = triple.layout.ravel().tolist()
    else:
        out["basis_legend"] = [list(triple.algebra.basis_label(p)) for p in range(triple.algebra.dim)]
        out["reps"] = [
            {f"e{b}": image for b, image in enumerate(matrix_to_json(images))} for images in triple.reps
        ]
    return out


def triple_from_json(data):
    """A triple in either form of ``triple_to_json``; the layout form gets
    the exact images of its layout."""
    from .stinespring import DilationTriple, layout_kappa, standard_images

    try:
        algebra = algebra_from_json(data["algebra"])
        k = json_arity(data["k"], "'k'")
        n, h, kappa = (json_int(data[key], repr(key)) for key in ("n", "h", "kappa"))
        layout_raw = data.get("layout")
        reps_raw = data["reps"] if layout_raw is None else None
        v_raw = data["V"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed dilation triple: {exc}") from exc
    if min(n, h) < 1 or kappa < 0:
        raise SpecFormatError(f"dilation triple needs n, h >= 1 and kappa >= 0, got n={n}, h={h}, kappa={kappa}")
    m = (k + 1) // 2
    if not (isinstance(v_raw, list) and len(v_raw) == n):
        raise SpecFormatError(f"dilation triple with n={n} needs a list of {n} V")
    layout = None
    if layout_raw is not None:
        blocks = algebra.n_blocks**m
        if not isinstance(layout_raw, list) or len(layout_raw) != blocks:
            raise SpecFormatError(f"dilation triple layout must list {blocks} multiplicities, got {layout_raw!r}")
        mus = [json_int(mu, "dilation triple layout entry") for mu in layout_raw]
        if min(mus) < 0:
            raise SpecFormatError(f"dilation triple layout has a negative multiplicity: {layout_raw!r}")
        layout = np.array(mus, dtype=object).reshape((algebra.n_blocks,) * m)  # Python ints: no overflow
        if layout_kappa(algebra, layout) != kappa:
            raise SpecFormatError(f"dilation triple layout gives kappa {layout_kappa(algebra, layout)}, not {kappa}")
    v_ops = tuple(
        matrix_from_json(vj, (kappa, h), f"dilation triple V[{j}]") if kappa else np.zeros((0, h))
        for j, vj in enumerate(v_raw)
    )
    if layout is None:
        reps = _reps_from_json(reps_raw, algebra, m, kappa)
    else:  # V has kappa rows, so the multiplicities fit intp and the images fit the file
        layout = layout.astype(np.intp)
        reps = standard_images(algebra, layout)
    meta = {"source": "json"}
    return DilationTriple(algebra, k, n, h, kappa, tuple(reps), v_ops, layout, data.get("rank_tol"), meta=meta)


def _reps_from_json(reps_raw, algebra: Algebra, m: int, kappa: int) -> list:
    """The m image stacks of a general-form triple."""
    if not (isinstance(reps_raw, list) and len(reps_raw) == m):
        raise SpecFormatError(f"dilation triple needs a list of {m} reps")
    reps = []
    for p, per_p in enumerate(reps_raw):
        try:
            raw_images = [per_p[f"e{b}"] for b in range(algebra.dim)]
        except (KeyError, TypeError) as exc:
            raise SpecFormatError(f"dilation triple reps must map e0..e{algebra.dim - 1}: {exc}") from exc
        reps.append(
            np.stack([
                matrix_from_json(raw, (kappa, kappa), f"dilation triple reps[{p}].e{b}")
                for b, raw in enumerate(raw_images)
            ])
            if kappa
            else np.zeros((algebra.dim, 0, 0), dtype=np.complex128)
        )
    return reps
