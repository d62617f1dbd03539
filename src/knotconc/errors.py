"""Exception types shared across the library."""


class KnotConcError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(KnotConcError):
    """An operation received the zero polynomial where a nonzero one is required."""


class DivisorNotMonicUnit(KnotConcError):
    """Exact polynomial division requires a divisor with leading coefficient +-1."""


class FactorizationLimit(KnotConcError):
    """A cofactor survived trial division beyond the configured bound."""


class InvalidInput(KnotConcError):
    """The request itself is at fault: malformed or out of range input, or
    work past a documented size bound.  The CLI exits 2 on every subclass."""


class InvalidSeifertMatrix(InvalidInput):
    """The matrix fails a Seifert-matrix invariant (see validate for details)."""


class BadTorusParameter(InvalidInput):
    """T(2,q) needs odd q >= 3."""


class NotAKnotPolynomial(InvalidInput):
    """An Alexander polynomial must satisfy Delta(1) = +-1 and be symmetric
    up to +-t^k."""


class NotAPrimePower(InvalidInput):
    """The argument is not of the form p^k with p prime, k >= 1."""


class NoCharacterModulus(InvalidInput):
    """No prime power cover within the search bound has a nontrivial
    character to Z_q, or the witness cover's |H_1| cannot be factored."""


class SizeLimit(InvalidInput):
    """The request would need work or output past a documented size bound."""


class WitnessSearchExhausted(KnotConcError):
    """No witness cover found within the search bound (indicates a bug)."""


class JumpPoint(KnotConcError):
    """The signature is not defined at a root of the Alexander polynomial."""


class TrivialAngle(KnotConcError):
    """The signature form is identically zero at omega = 1; angle 0 is excluded."""


class PreconditionUnverifiable(KnotConcError):
    """Jump analysis needs the Alexander polynomial to be +-t^k times
    cyclotomic factors whose indices divide 2q; any other factor is refused,
    even one with no root on the unit circle."""


class LemmaViolation(KnotConcError):
    """A torus-knot signature assertion failed (indicates a bug)."""


class CertificationFailure(KnotConcError):
    """An exact division or certified check inside the library failed
    (indicates a bug)."""


class SeparationFailure(KnotConcError):
    """A witness schedule violates its range-separation invariants."""


class HypothesisNotSatisfied(KnotConcError):
    """The Alexander polynomial does not obstruct: every prime power cover
    is a homology sphere, so no separating family can be built this way."""
