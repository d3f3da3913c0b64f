"""Exception types shared across the package."""


class UnitRootError(Exception):
    """Base class for all errors raised by this package."""


class CompositeP(UnitRootError):
    """The given characteristic is not prime."""


class ReduciblePolynomial(UnitRootError):
    """A defining polynomial is reducible where irreducibility is required."""


class PrecisionTooLow(UnitRootError):
    """The working precision cannot represent the requested object."""


class NonUnitDivision(UnitRootError):
    """Division by a non-unit would silently lose precision; refused."""


class NotSpanning(UnitRootError):
    """The exponent set does not span the ambient space."""


class OutsideCone(UnitRootError):
    """Lattice point lies outside the cone generated by the exponents."""


class NotARelation(UnitRootError):
    """Integer vector is not a relation of the exponent set."""


class PrecisionUnstable(UnitRootError):
    """No truncation within the budget was stable at the reported precision."""


class NoConvergence(UnitRootError):
    """Power iteration failed to stabilize within the iteration budget."""


class NoUnitRoot(UnitRootError):
    """Fredholm determinant has no slope-zero segment."""


class MultipleUnitRoots(UnitRootError):
    """Fredholm determinant has a slope-zero segment longer than one."""


class TooLarge(UnitRootError):
    """Enumeration exceeds the configured guard."""


class ConfigInvalid(UnitRootError):
    """Job configuration failed validation."""


class CacheUnwritable(UnitRootError):
    """The kernel cache cannot store a table at its entry's path."""
