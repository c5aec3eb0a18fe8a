"""Every threshold a verdict rests on.  Parameters of an algorithm that decide
no verdict (step rules, batch and chunk sizes) stay where they are used."""

HERMITIAN_TOL = 1e-10  # is_positive_element: |x - x*|, times max(1, ||x||)
PSD_TOL = 1e-9  # is_positive_element: lowest eigenvalue, times max(1, ||x||)
REP_TOL = 1e-10  # representation laws and commutation, spectral norms
FALSIFIER_TOL = 1e-8  # lowest value eigenvalue, times 1 + max |value entry|
GRAM_PSD_TOL = 1e-9  # lowest Gram eigenvalue, times max(1, spectral norm)
GRAM_HERMITIAN_TOL = 1e-8  # max |G - G*| / (1 + max |G|)
PALINDROME_TOL = 1e-12  # admissible tuples: max |a_i - a_(k+1-i)*|
COEFFICIENT_TOL = 1e-9  # invariance and symmetry deviations, times 1 + coefficient scale
RANK_TOL = 1e-10  # kept squared pivots of the anchor walk, relative to the largest squared anchor norm
EQUIVALENCE_TOLS = {"isometry": 1e-9, "intertwining": 1e-7, "v_match": 1e-7}
# CP certificate: reconstruction times 1 + coefficient scale, structural laws absolute
CERTIFICATE_TOLS = {"reconstruction": 1e-8, "structural": 1e-6}
RELATIVE_MARGIN = 1e-6  # norm estimates against their bound
V_BOUND_TOL = 1e-8  # |max ||V_j||^2 - unit value|, times 1 + unit value


def coefficient_tol(scale: float) -> float:
    """Default invariance and symmetry tolerance at this coefficient scale."""
    return COEFFICIENT_TOL * (1.0 + scale)


def reconstruction_bound(coefficient_scale: float) -> float:
    """The largest reconstruction residual the CP certificate accepts at this coefficient scale."""
    return CERTIFICATE_TOLS["reconstruction"] * (1.0 + coefficient_scale)


def certifies(residuals, coefficient_scale: float) -> bool:
    """The CP certificate: whether a ``DilationReport`` shows that its triple dilates the map."""
    return (
        residuals.reconstruction <= reconstruction_bound(coefficient_scale)
        and residuals.max_structural() <= CERTIFICATE_TOLS["structural"]
    )
