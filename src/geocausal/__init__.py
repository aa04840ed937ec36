"""Knowledge graph for geographic events.

Typed geo-entities and relations, observation-based preconditions, a
forward-chaining causal engine with provenance, and why-query explanation
chains over the result.

A public name loads its submodule on first use, so a CLI command imports
only the modules it runs.
"""

import importlib

# ``query`` names both a function and a submodule, and loading a submodule
# binds it over the package attribute. Loading ``query`` here, before the
# function is bound, keeps ``geocausal.query`` the function.
from .query import Explanation, query, render_explanation_text, why

__version__ = "0.1.0"

#: submodule -> the public names it defines, resolved by ``__getattr__``.
_LAZY = {
    "engine": ("Diagnostic", "EngineConfig", "InferenceResult", "ProvenanceTree", "explain", "infer"),
    "graph": ("ASSERTED", "Asserted", "Derived", "KnowledgeGraph", "RelationKind", "Role", "Triple"),
    "ingest": ("IngestReport", "Strictness", "ingest_observations_csv", "ingest_storm_csv"),
    "model": (
        "BBox", "GeoEvent", "GeoObject", "GeoSituation", "Geometry", "Measurement", "Point",
        "SpatioTemporalRegion", "TimeInterval",
    ),
    "rules": (
        "CauseRule", "CoOccurs", "Condition", "Precedes", "PrecedesWithin", "PreconditionSet",
        "RuleSet", "SatisfactionResult", "Truth", "evaluate", "parse_rules", "print_rules",
    ),
    "spatiotemporal": (
        "IntervalRelation", "co_occurs", "interval_relation", "precedes", "spatial_overlap",
        "temporally_nested",
    ),
    "storage": ("dump_graph", "load_graph", "loads_graph", "save_graph"),
    "units": (
        "Categorical", "Comparator", "Dimension", "Quantity", "Unit", "compare", "convert",
        "get_unit",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["Explanation", "query", "render_explanation_text", "why", *_SOURCE]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:  # lets ``from geocausal import engine`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
