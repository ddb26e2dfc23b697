"""Shared exception types."""


class KvaControlError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(KvaControlError):
    pass


class JointLimitViolation(KvaControlError):
    pass


class BehindCamera(KvaControlError):
    pass


class InvalidParams(KvaControlError, ValueError):
    pass


class ShapeMismatch(KvaControlError):
    pass


class EmptyCorpus(KvaControlError):
    pass


class NonFiniteGradient(KvaControlError):
    pass


class LabelOutOfRange(KvaControlError, ValueError):
    pass


class ParseError(KvaControlError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(KvaControlError):
    pass


class BadMagic(KvaControlError):
    pass


class VersionMismatch(KvaControlError):
    pass


class TruncatedFile(KvaControlError):
    pass
