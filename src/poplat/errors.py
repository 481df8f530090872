"""Shared exception types."""


class GuardError(ValueError):
    """A requested size would pass the memory budget (see `families.MAX_BYTES`)."""


class NotALatticeError(ValueError):
    """The cover relation does not define a lattice; carries a witness pair."""


class NonIntervalClassError(ValueError):
    """A congruence class is not an interval of the lattice."""
