"""Exception hierarchy shared across the toolkit."""


class ForgeError(Exception):
    """Base class for all toolkit-specific failures. `exit_code` is the
    status `forge` exits with when one ends a stage or the config load."""

    exit_code = 1


class ValidationFailure(ForgeError):
    """Stage input that breaks a rule; `rejections`, if any, are the entries of its rejection report."""

    exit_code = 3

    def __init__(self, message: str, rejections: list[dict] | None = None):
        self.rejections = rejections
        super().__init__(message)
