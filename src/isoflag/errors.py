"""Exception types shared across the package."""


class IsoflagError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IsoflagError):
    """Bad arguments: dimension mismatches, invalid weights, wrong isotropy class."""


class ParseError(IsoflagError):
    """Malformed input file.  Carries a JSON-pointer-style path to the bad field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        # args holds the one formatted string, which is not what __init__
        # takes: a worker process sends the error back by pickling it
        return type(self), (self.path, self.message)


class InternalConsistencyError(IsoflagError):
    """Two independently computed values that must agree did not.

    This is never swallowed: it indicates a bug, not bad input.
    """
