"""Exception types for graph validation and analysis limits."""


class RobonetError(Exception):
    """Base class for every error raised by this package."""


class GraphValidationError(RobonetError):
    """A graph or graph file violates a structural invariant."""


class IndexOutOfRangeError(GraphValidationError):
    """A vertex id falls outside the graph's vertex set."""


class SelfLoopError(GraphValidationError):
    """An explicit self-loop was supplied.

    Follower self-loops are implicit in the information-flow model and
    must be omitted from the edge set.
    """


class RootInEdgeHeadError(GraphValidationError):
    """An edge points into a root; roots never receive edges."""


class EmptyRootSetError(GraphValidationError):
    """The root-set must contain at least one vertex."""


class GraphTooLargeError(GraphValidationError):
    """A graph would have more vertices than the package accepts."""


class GraphFormatError(GraphValidationError):
    """A graph file could not be parsed; the message carries position info."""


class UnknownEdgeError(RobonetError):
    """An operation referenced an edge that is not in the graph."""


class RootRemovalError(RobonetError):
    """Roots never fail; they cannot be removed."""


class TargetIsRootError(RobonetError):
    """Connectivity queries are only defined for follower targets."""


class RootQueriedError(RobonetError):
    """Per-agent indices are only defined for followers."""


class UncontrollableError(RobonetError):
    """The operation needs a controllable graph as its baseline."""


class EdgeIsCriticalError(RobonetError):
    """The link controllability index is only defined for uncritical links."""


class NotAnOutCutError(RobonetError):
    """The supplied edge set is not the out-cut of any root-containing vertex set."""


class NotACriticalAgentSetError(RobonetError):
    """The supplied vertex set is not a minimum breaking agent set."""


class ConditionUnmetError(RobonetError):
    """Some agent in the supplied critical set has no out-edge with unit index.

    The link substitution routine then produces fewer links than agents,
    which is reported instead of being silently accepted.
    """


class ParameterOverflowError(RobonetError):
    """Generator parameters would produce an unreasonably large graph."""


class InvalidConnectionSetError(RobonetError):
    """A circulant connection set must be a nonempty subset of 1..n-1."""


class UnsatisfiableError(RobonetError):
    """Random-graph parameters admit no valid graph."""


class InstanceTooLargeError(RobonetError):
    """An exhaustive enumeration would exceed the configured budget."""
