"""Exception types raised by the engine.

Every failure mode of the public operations has its own class so callers
(and the DSL interpreter, which records errors per command) can dispatch on
the exact condition.
"""


class LeafnormError(Exception):
    """Base class for all engine errors."""


# --- exact arithmetic kernel ---

class ZeroDenominator(LeafnormError):
    pass


class UnknownVariable(LeafnormError):
    pass


class SingularAtZeroSection(LeafnormError):
    """Denominator vanishes identically on the zero section."""


class SingularMatrix(LeafnormError):
    pass


class LimitExceeded(LeafnormError):
    """An input exceeds an explicit resource limit; raised before any work."""


# --- multivector / mixed-element algebra ---

class ContextMismatch(LeafnormError):
    pass


class NonHomogeneous(LeafnormError):
    pass


class WrongDegree(LeafnormError):
    pass


class InvalidElement(LeafnormError):
    """Element violates a structural membership constraint."""


class NotAConnection(LeafnormError):
    pass


class ZeroParameter(LeafnormError):
    pass


class NotFiberPolynomial(LeafnormError):
    pass


# --- Dirac / Vorobjev layer ---

class NotHorizontallyNondegenerate(LeafnormError):
    pass


class DegenerateFPart(LeafnormError):
    pass


class LeafCheckFailed(LeafnormError):
    pass


class NotDivisibleByT(LeafnormError):
    pass


class NotFirstOrder(LeafnormError):
    pass


# --- models ---

class JacobiFailed(LeafnormError):
    pass


class VariableOverlap(LeafnormError):
    pass


class SingularPoint(LeafnormError):
    pass


class NonRationalInput(LeafnormError):
    pass


class ZeroGenerator(LeafnormError):
    pass


# --- DSL ---

class DslError(LeafnormError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return "%s (line %d, col %d)" % (base, self.line, self.col)
        return base


class DslSyntaxError(DslError):
    pass


class UnknownIdentifier(DslError):
    pass


class ChartRedeclared(DslError):
    pass
