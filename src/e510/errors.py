"""Errors the command line reports as "could not run" (exit code 2)."""


class ConfigError(ValueError):
    """Bad command line or input file contents."""
