"""Shared exception types."""


class GuardError(ValueError):
    """A requested size is past the memory budget or the order bound (see
    `families.MAX_BYTES` and `families.MAX_ORDER`)."""


class NotALatticeError(ValueError):
    """The cover relation does not define a lattice; carries a witness pair."""

