"""Exception types shared across the package."""
import copyreg


class OctoplanError(Exception):
    """Base class for all package-specific errors."""

    def __reduce__(self):
        # Rebuild from args and attributes, not through __init__, so an
        # error raised in a pool worker reaches the caller as itself.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class EmptyInput(OctoplanError):
    """An operation received fewer points than it can work with."""


class DegenerateInput(OctoplanError):
    """Hull input is affinely dependent or spread over geometry.MAX_SPREAD."""


class PointOutOfDomain(OctoplanError):
    """A point lies outside the declared domain box."""

    def __init__(self, point, domain_min, domain_max, index=None):
        self.point = point
        self.index = index
        where = f"point {[float(x) for x in point]}"
        if index is not None:
            where += f" (input row {index})"
        lo = [float(x) for x in domain_min]
        hi = [float(x) for x in domain_max]
        super().__init__(f"{where} outside domain [{lo}, {hi}]")


class DepthCapExceeded(OctoplanError):
    """A subdivision request would push the tree past its depth cap."""


class InvalidSpec(OctoplanError, ValueError):
    """A caller-supplied value, config or generator spec is invalid."""


class CloudParseError(OctoplanError):
    """A cloud file could not be parsed."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class WorkerFailed(OctoplanError):
    """A pool worker process ended before returning its results."""
    code = "worker_failed"


class PlanningError(OctoplanError):
    """Base class for planner failures; carries a machine-readable code."""

    code = "planning_error"


class InvalidRequest(PlanningError):
    """Start or goal cell is unusable for the requested plan."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


class RefinementFailed(PlanningError):
    """Refinement ended without a plan; carries the last grid, the rounds
    tried and the time spent."""

    def __init__(self, message, grid=None, rounds_attempted=0,
                 plan_seconds=0.0):
        self.grid = grid
        self.rounds_attempted = rounds_attempted
        self.plan_seconds = plan_seconds
        super().__init__(message)


class StartOrGoalOccupied(RefinementFailed):
    """Every attempted refinement depth left the start or goal cell occupied."""

    code = "start_or_goal_occupied"


class NoPathAtMaxDepth(RefinementFailed):
    """No path was found at any depth up to the refinement limit."""

    code = "no_path_at_max_depth"
