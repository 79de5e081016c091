"""Exceptions shared by the package."""


class VerificationError(AssertionError):
    """A check of the engine's own results failed.

    Raised for an inconsistent or invalid fold into the symmetrized basis,
    for leakage found by the numeric recheck of an invariant span, and for
    a ladder rung that disagrees with the engine.  The command line maps it
    to exit code 1, a verification failure, not to the usage-error code 2.
    It subclasses AssertionError, which these checks raised before.
    """
