"""Knowledge graph for geographic events.

Typed geo-entities and relations, observation-based preconditions, a
forward-chaining causal engine with provenance, and why-query explanation
chains over the result.
"""

from .engine import Diagnostic, EngineConfig, InferenceResult, ProvenanceTree, explain, infer
from .graph import (
    ASSERTED,
    Asserted,
    Derived,
    KnowledgeGraph,
    RelationKind,
    Role,
    Triple,
)
from .ingest import (
    IngestReport,
    Strictness,
    ingest_observations_csv,
    ingest_storm_csv,
)
from .model import (
    BBox,
    GeoEvent,
    GeoObject,
    GeoSituation,
    Geometry,
    Measurement,
    Point,
    SpatioTemporalRegion,
    TimeInterval,
    make_interval,
)
from .query import Explanation, query, render_explanation_text, why
from .rules import (
    CauseRule,
    CoOccurs,
    Condition,
    Precedes,
    PrecedesWithin,
    PreconditionSet,
    RuleSet,
    SatisfactionResult,
    Truth,
    evaluate,
    parse_rules,
    print_rules,
)
from .spatiotemporal import (
    IntervalRelation,
    co_occurs,
    interval_relation,
    precedes,
    spatial_overlap,
    temporally_nested,
)
from .storage import dump_graph, load_graph, loads_graph, save_graph
from .units import Categorical, Comparator, Dimension, Quantity, Unit, compare, convert, get_unit

__version__ = "0.1.0"
