"""Exception types shared by all hh1lab modules."""


class HH1LabError(Exception):
    """Base class for all hh1lab errors."""


class NotPrime(HH1LabError):
    pass


class DegreeOutOfRange(HH1LabError):
    pass


class DivisionByZero(HH1LabError):
    pass


class FieldMismatch(HH1LabError):
    pass


class OrderCapExceeded(HH1LabError):
    pass


class InvalidPermutation(HH1LabError):
    pass


class NotAMember(HH1LabError):
    pass


class NotASubgroup(HH1LabError):
    pass


class InvariantViolation(HH1LabError):
    """A mathematical invariant failed: a bug, not a bad input."""


class DimCapExceeded(HH1LabError):
    pass


class SplitFieldTooSmall(HH1LabError):
    pass


class NonDivisor(HH1LabError):
    pass


class NegativeResult(HH1LabError):
    pass


class TrivialSylow(HH1LabError):
    pass


class InvalidCategory(HH1LabError):
    pass


class NotAnAction(HH1LabError):
    pass
