"""Exception types raised by the engine, and the immutable record base of its
results and AST nodes.

Every failure mode of the public operations has its own class so callers
(and the DSL interpreter, which records errors per command) can dispatch on
the exact condition.
"""


class Record:
    """An immutable value: its fields are the __slots__ of its class, set
    positionally, and it equals a record of its class with equal fields.  A
    subclass declares only __slots__; one that validates calls
    super().__init__ with the checked values."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # slot setters go round the refusing __setattr__, faster than by name
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)
        if "__init__" not in vars(cls) and len(cls._setters) in _EXACT:
            init = _EXACT[len(cls._setters)](*cls._setters)
            init.__qualname__ = cls.__qualname__ + ".__init__"
            cls.__init__ = init

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError("%s takes %d fields, not %d" % (
                type(self).__name__, len(self._setters), len(values)))
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def fields(self):
        """Field name -> value, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        return type(other) is type(self) and self.fields() == other.fields()

    def __hash__(self):
        return hash(tuple(self.fields().values()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in self.fields().items()))


def _init1(set_a):
    def __init__(self, a, /):
        set_a(self, a)
    return __init__


def _init2(set_a, set_b):
    def __init__(self, a, b, /):
        set_a(self, a)
        set_b(self, b)
    return __init__


def _init3(set_a, set_b, set_c):
    def __init__(self, a, b, c, /):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
    return __init__


# field count -> an __init__ of that arity over the slot setters, without
# Record.__init__'s loop, which records of other sizes keep
_EXACT = {1: _init1, 2: _init2, 3: _init3}


class Verdict(Record):
    """A record whose truth value is its first field (ok, feasible)."""

    __slots__ = ()

    def __bool__(self):
        return getattr(self, self.__slots__[0])


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
