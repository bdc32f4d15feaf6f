"""Errors the command line reports: ConfigError as "could not run" (exit
code 2), VerificationError as a mathematical failure (exit code 1)."""


class ConfigError(ValueError):
    """Bad command line or input file contents."""


class VerificationError(RuntimeError):
    """A kernel vector of a search block failed its re-check through the
    module action: the witness is the block (mu, degree, weight) and the
    re-check options."""

    def __init__(self, mu, degree, weight, checks):
        self.mu, self.degree, self.weight, self.checks = (
            mu, degree, weight, checks)
        opts = "".join(", %s=%s" % kv for kv in sorted(checks.items()))
        super().__init__(
            "kernel vector fails the action re-check is_singular(vector%s) "
            "at mu=%s d=%d nu=%s" % (opts, mu, degree, weight))
