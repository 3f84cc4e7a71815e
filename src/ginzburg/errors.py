"""Exception types shared across the package.

The CLI maps ValidationError (and argparse failures) to exit code 2 and
ToleranceError to exit code 3; everything else is a genuine bug.  Bad input
raises ValidationError itself, its message naming the value; the one
subclass, GuardError, marks the weak-coupling guard that callers catch.
"""


class GinzburgError(Exception):
    """Base class for all package errors."""


class ValidationError(GinzburgError):
    """Bad physical parameters, malformed config, or out-of-domain input."""


class GuardError(ValidationError):
    """Weak-coupling guard violated for a perturbative formula."""


class ToleranceError(GinzburgError):
    """A numerical check missed its tolerance; the message names both values."""
