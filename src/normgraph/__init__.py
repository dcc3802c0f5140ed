"""Deterministic temporal knowledge-graph engine for versioned documents.

The public names below are imported from their modules on first use
(PEP 562), so importing the package, or one of its modules, loads only
what that use needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    **dict.fromkeys(["DataError", "NormGraphError", "QueryError"], "errors"),
    **dict.fromkeys([
        "add_language", "apply_events", "enact", "ingest_corpus", "parse_document",
        "parse_event_file", "render_action_text", "textualize_metadata",
    ], "ingest"),
    **dict.fromkeys([
        "ActionNode", "ActionType", "Aspect", "ComponentType", "LanguageVersion",
        "TemporalVersion", "TextUnit", "ThemeNode", "WorkNode", "validate_graph",
    ], "model"),
    **dict.fromkeys(["Answer", "QueryPattern", "Strategy", "StructuredQuery", "run"], "planner"),
    **dict.fromkeys([
        "HashedTfidfEmbedder", "RetrievalHit", "RetrievalMode", "RetrievalRequest",
        "locate_spans", "scoped_search",
    ], "retrieval"),
    **dict.fromkeys(["GraphStore", "load", "save", "tokenize"], "store"),
    **dict.fromkeys([
        "MembershipPolicy", "SnapshotPolicy", "TemporalScope", "ctv_at", "resolve_instant",
        "resolve_scope", "snapshot_text",
    ], "temporal"),
    **dict.fromkeys(["define_theme", "theme_scope"], "themes"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
