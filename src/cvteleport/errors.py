"""Exception and warning types shared across the package."""


class ValidationError(ValueError):
    """Invalid parameter domain (chi outside (0,1), empty grid, bad spec...)."""


class NumericsError(RuntimeError):
    """Numerical guard tripped: truncation overflow, unphysical covariance,
    vanishing conditional probability."""


class BoundaryMassWarning(UserWarning):
    """Integrand not negligible at the boundary of a quadrature grid."""
