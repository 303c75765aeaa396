"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A scalar argument is outside its allowed range."""


class NodeCapError(InvalidParameterError):
    """A pointer grid would hold more nodes than pointer.MAX_POINTER_NODES; nodes is the count it needs."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


class InvalidStateError(ValueError):
    """A pointer or density operator violates a structural invariant."""


class PhysicalityError(ValueError):
    """A measurement strength lies outside the unit circle F^2 + G^2 <= 1."""
