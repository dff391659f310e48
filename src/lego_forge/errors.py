"""Exception hierarchy shared across the toolkit."""


class ForgeError(Exception):
    """Base class for all toolkit-specific failures. `exit_code` is the
    status `forge` exits with when one ends a stage or the config load."""

    exit_code = 1
