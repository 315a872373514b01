"""Exception types shared across the package."""


class TwigstoreError(Exception):
    """Base class for all errors raised by this package."""


class MalformedXml(TwigstoreError):
    """Input text is not well-formed XML (unbalanced tags, multiple roots, ...)."""


class MalformedInput(TwigstoreError, ValueError):
    """A config, triple or triple-query text is not in its expected format."""


class EmptyInput(TwigstoreError):
    """Input text is empty or whitespace-only."""


class UnknownNode(TwigstoreError):
    """A structural label does not identify an addressable node of the document."""


class DuplicatePeer(TwigstoreError):
    """A peer id is already registered with the network."""


class UnknownPeer(TwigstoreError):
    """A peer id is not registered with the network."""


class TickBudgetExceeded(TwigstoreError):
    """The event queue was still non-empty when the tick budget ran out."""


class AlreadyMember(TwigstoreError):
    """Peer is already a member of the overlay."""


class NotMember(TwigstoreError):
    """Peer is not a member of the overlay."""


class NoMembers(TwigstoreError):
    """The overlay has no members to serve the request."""


class PatternSyntaxError(TwigstoreError):
    """Tree-pattern text failed to parse; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnsupportedWildcardRoot(TwigstoreError):
    """Every node of the pattern is a wildcard; no index key can seed the join."""


class UnseedablePattern(TwigstoreError):
    """A triple pattern has no constant position to seed a lookup."""


class PlanSiteUnreachable(TwigstoreError):
    """A plan operator is pinned to a peer that is not alive."""


class NotFound(TwigstoreError):
    """No resource is registered under the requested id."""


class IoFailure(TwigstoreError):
    """A file could not be read or written."""


class UsageError(TwigstoreError):
    """Command-line arguments do not fit the ``store`` command syntax."""


class CorruptSnapshot(TwigstoreError):
    """Snapshot file failed structural validation or checksum."""
