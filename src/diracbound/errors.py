"""Package exceptions, split by how the CLI reports them.

SolverError and subclasses mean a numerical computation failed (exit code
1 at the command line); HypothesisViolationError means the inputs fall
outside the assumptions of the comparison theorem (exit code 2).
"""


class SolverError(Exception):
    """A numerical eigenvalue computation failed."""


class NoBoundStateError(SolverError):
    """The grid searched holds fewer bound states than requested."""


class ConvergenceError(SolverError):
    """An iteration cap or finiteness check tripped; diagnostics in args."""


class HypothesisViolationError(Exception):
    """Inputs violate the ordering/nodelessness hypothesis of the theorem."""
