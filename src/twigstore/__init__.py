"""XML resource store over a simulated hash overlay and range overlay.

Public surface: document parsing and interval labels, the deterministic
network harness, hash/range overlays, the posting index, tree patterns,
the transfer-minimizing planner, conjunctive RDF queries, and the store
facade with centralized and p2p backends.  The test oracle
(``twigjoin.eval_naive``), ``twigjoin.QueryCache`` and the rule engine
``planner.rewrite`` are no part of it: they stay in their modules only as
benchmark trace targets and for the tests.
"""

from .document import (
    Document,
    Node,
    Resource,
    StructuralId,
    extract_resources,
    is_ancestor,
    is_parent,
    parse_document,
    serialize_subtree,
)
from .netsim import Network, NetworkStats
from .overlay import DhtService, HashOverlay, RangeOverlay
from .indexing import IndexService
from .pattern import TreePattern, canonical, parse_pattern
from .planner import decompose, execute, place, plan_to_xml
from .rdfstore import ConjunctiveQuery, Triple, eval_conjunctive, index_triples
from .store import QueryResult, Store, StoreConfig, restore, snapshot

__all__ = [
    "ConjunctiveQuery",
    "DhtService",
    "Document",
    "HashOverlay",
    "IndexService",
    "Network",
    "NetworkStats",
    "Node",
    "QueryResult",
    "RangeOverlay",
    "Resource",
    "Store",
    "StoreConfig",
    "StructuralId",
    "TreePattern",
    "Triple",
    "canonical",
    "decompose",
    "eval_conjunctive",
    "execute",
    "extract_resources",
    "index_triples",
    "is_ancestor",
    "is_parent",
    "parse_document",
    "parse_pattern",
    "place",
    "plan_to_xml",
    "restore",
    "serialize_subtree",
    "snapshot",
]
