"""Exception types shared across the package.

Input problems (malformed models, inconsistent arguments, bad files) map to
exit code 2 at the CLI; refusals due to combinatorial size guards map to 3.
"""

from __future__ import annotations


class NetfuncompError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class SizeCapError(NetfuncompError):
    """Refused: a combinatorial size guard was exceeded."""

    exit_code = 3


# network model

class CycleDetected(NetfuncompError):
    pass


class SourceHasInEdge(NetfuncompError):
    pass


class SinkHasOutEdge(NetfuncompError):
    pass


class UnreachableNode(NetfuncompError):
    pass


class BadDistribution(NetfuncompError):
    """Model distribution is not strictly positive and normalized."""


class ConstantFunction(NetfuncompError):
    pass


class UnknownEdgeId(NetfuncompError):
    pass


class NotACutSet(NetfuncompError):
    """Edge set does not separate any source from the sink."""


# equivalence classes and counting

class OverlappingSets(NetfuncompError):
    pass


class DomainTooLarge(SizeCapError):
    pass


class NotAClass(NetfuncompError):
    """Supplied vertex set is not one of the equivalence classes."""


# probabilistic graphs

class EmptyList(NetfuncompError):
    pass


class NotAutonomous(NetfuncompError):
    pass


class ZeroMass(NetfuncompError):
    pass


class TooLarge(SizeCapError):
    pass


# entropies

class BadDist(NetfuncompError):
    """Distribution argument is negative somewhere or not normalized."""


class NoConvergence(NetfuncompError):
    """Iterative solver hit its iteration cap above the gap tolerance."""


# bound searches

class SearchSpaceExceeded(SizeCapError):
    pass


class OptimizerFailed(NetfuncompError):
    pass


# code simulation

class EmptyWord(NetfuncompError):
    pass


class DomainMismatch(NetfuncompError):
    """Encoder or decoder table is missing an input it must handle."""


class OddK(NetfuncompError):
    pass


# command line

class UsageError(NetfuncompError):
    pass
