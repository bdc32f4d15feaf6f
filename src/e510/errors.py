"""Errors the command line reports: ConfigError as "could not run" (exit
code 2), VerificationError as a mathematical failure (exit code 1)."""


class ConfigError(ValueError):
    """Bad command line or input file contents."""


class VerificationError(RuntimeError):
    """A kernel vector of a search block failed its re-check through the
    module action: the witness is the block (mu, degree, weight), the
    re-check options and the label of the first condition whose image of
    the vector is nonzero (None when none is known)."""

    def __init__(self, mu, degree, weight, checks, condition=None):
        self.mu, self.degree, self.weight, self.checks = (
            mu, degree, weight, checks)
        self.condition = condition
        opts = "".join(", %s=%s" % kv for kv in sorted(checks.items()))
        failed = ("" if condition is None else
                  ": condition %s does not kill it" % condition)
        super().__init__(
            "kernel vector fails the action re-check is_singular(vector%s) "
            "at mu=%s d=%d nu=%s%s" % (opts, mu, degree, weight, failed))
