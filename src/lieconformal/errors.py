"""Exception types shared across the package."""


class InvalidRank(ValueError):
    """The (series, rank) pair is outside the classical constraints."""


class DimensionMismatch(ValueError):
    """Vector does not live in the ambient space of the root system."""


class Reducible(ValueError):
    """Operation requires an irreducible root system."""


class NotARoot(ValueError):
    """A vector expected to be a root is not one."""


class SystemMismatch(ValueError):
    """Algebra elements belong to different root systems."""


class NotValidated(RuntimeError):
    """The isotropy configuration was not validated before use."""


class ResidualNonzero(AssertionError):
    """An invariance constraint has a nonzero residual (assembly bug)."""


class Unalignable(ValueError):
    """No diagonal rescaling matches the reference form values."""


class NoWitness(ValueError):
    """No rescaling witness satisfies the reference bracket relations."""


class Inconsistent(ValueError):
    """The forced isotropy subalgebra violates closure or pairing.

    This is an elimination verdict, not a bug: the witness records the
    contradiction (a root pulled into the kernel even though it is paired,
    an opposite pair whose coroot leaves the Cartan part, and so on).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
