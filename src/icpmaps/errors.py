"""Exception types shared across the package."""


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebras (or wrong grid sizes)."""


class ArityError(ValueError):
    """Wrong number of arguments for a multilinear map."""


class SpecFormatError(ValueError):
    """A JSON spec is malformed or internally inconsistent."""


class NonHermitianGramError(ValueError):
    """Gram matrix is not Hermitian beyond tolerance; source map is malformed
    or not symmetric."""

    def __init__(self, residual):
        super().__init__(
            f"Gram matrix is non-Hermitian (relative residual {residual:.3e}); "
            "source map is malformed or not symmetric"
        )
        self.residual = residual


class NotCompletelyPositiveError(RuntimeError):
    """Dilation refused: the Gram kernel has a genuinely negative eigenvalue;
    ``witness`` is the refutation record."""

    def __init__(self, min_eigenvalue, witness=None):
        super().__init__(
            f"Gram kernel is not positive semidefinite (min eigenvalue "
            f"{min_eigenvalue:.3e}); map is not dilatable / not CP"
        )
        self.min_eigenvalue = min_eigenvalue
        self.witness = witness


class DilationObstructionError(RuntimeError):
    """The standard form from the anchor Gram blocks does not dilate a map
    whose Gram is Hermitian and PSD (a map that is not invariant, or a
    rank cut that drops part of the map); ``report`` holds the triple's
    residuals."""

    def __init__(self, report, kappa):
        super().__init__(
            f"the standard form from the anchor Gram blocks does not dilate the map: "
            f"reconstruction residual {report.reconstruction:.3e} at kappa {kappa}"
        )
        self.report = report
        self.kappa = kappa
