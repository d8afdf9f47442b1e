"""Exception types shared across the package."""


class RBGroupsError(Exception):
    """Base class for errors raised by this package."""


class InputFormatError(RBGroupsError):
    """Malformed user input: bad JSON shape, bad table, unknown id."""


class ResourceCapError(RBGroupsError):
    """A configured cap (order, memory, node budget) was exceeded."""


class OutOfScaleError(ResourceCapError):
    """Recognized target that is deliberately beyond desk scale.

    Carries enough context to emit an explicit report entry instead of a
    silent truncation.
    """

    def __init__(self, ident, reason, order=None):
        self.ident = ident
        self.reason = reason
        self.order = order
        super().__init__(f"{ident}: out of desk scale ({reason})")

    def report_entry(self):
        entry = {"id": self.ident, "status": "out of desk scale", "reason": self.reason}
        if self.order is not None:
            entry["order"] = self.order
        return entry


class PropertyFailure(RBGroupsError):
    """A proposition clause that should hold was violated.

    ``clause`` names the failed clause, ``witness`` is a tuple of element
    indices demonstrating the failure.
    """

    def __init__(self, clause, witness=None):
        self.clause = clause
        self.witness = witness
        msg = clause if witness is None else f"{clause} (witness {witness})"
        super().__init__(msg)
