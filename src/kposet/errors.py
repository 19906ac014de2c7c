"""Exception types shared across the package, and the alphabet check that
`posets` and the `quotient` command share, kept here so that `quotient`
loads no order code.

The CLI maps ConfigError/DomainError to exit code 2 and ResourceError to
exit code 3; everything else is a genuine bug.
"""


class KposetError(Exception):
    pass


class ConfigError(KposetError):
    """Bad user-supplied configuration: spec strings, files, flag values."""


class DomainError(KposetError):
    """An element representation is not valid for the poset at hand."""


class ResourceError(KposetError):
    """A desk-scale ceiling (enumeration bound, search bound) was exceeded."""


class MonotonicityError(KposetError):
    """An approximation process broke its monotone-in-t contract.

    Carries the offending pair of (t, value) points as `witness`.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class VerificationError(KposetError):
    """An internal self-check failed: a witness did not replay, a generated
    family did not verify, or a round-trip broke."""


def _parse_alphabet(text: str) -> str:
    """text, as an alphabet of distinct single-character symbols; ConfigError
    when it is empty or repeats a symbol."""
    if not text:
        raise ConfigError("alphabet must not be empty")
    if len(set(text)) != len(text):
        raise ConfigError(f"alphabet has repeated symbols: {text!r}")
    return text
