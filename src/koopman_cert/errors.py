"""Exception hierarchy shared across the package."""


class KoopmanCertError(Exception):
    """Base class for all package errors."""


class ConfigError(KoopmanCertError):
    """Invalid configuration input (CLI exit code 2)."""


class NumericalError(KoopmanCertError):
    """Numerical failure such as a residual check not met (CLI exit code 3)."""


class NonErgodicChain(ConfigError):
    """The finite chain is reducible or periodic; no unique ergodic measure."""


class DomainError(KoopmanCertError):
    """A state lies outside the system's state space (e.g. NaN coordinates)."""


class SingularMass(NumericalError):
    """Exact mass matrix is numerically singular (s_min <= 1e-12 s_max)."""


class SingularEmpiricalMass(NumericalError):
    """Empirical mass matrix is not invertible (m < N or degenerate samples)."""


class DimensionMismatch(KoopmanCertError):
    """Matrix/dictionary dimensions do not agree."""


class UnsupportedSystem(ConfigError):
    """The system lacks what the request needs (an exact finite
    representation, an initial-measure sampler)."""


class NotUnitary(KoopmanCertError):
    """Operation requires a unitary Koopman representation."""


class NotMeanZero(KoopmanCertError):
    """Function has a nonzero component along the constant direction."""


class DegenerateTheta(KoopmanCertError):
    """Internal consistency failure in a thin-measure certificate."""


class NoSpectralGap(KoopmanCertError):
    """Eigenvalue 1 is not isolated in the representation."""


class MissingCertificate(KoopmanCertError):
    """A thin-measure certificate is required but absent."""


class MissingSupBound(KoopmanCertError):
    """A sup-norm bound on phi is required but absent."""


class InsufficientPoints(KoopmanCertError):
    """Too few grid points for a rate fit."""
