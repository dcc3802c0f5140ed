"""Thematic communities: curated cross-document groupings of works."""

from __future__ import annotations

from datetime import date

from .errors import DuplicateLabel, UnknownMember, UnknownTheme
from .model import TextUnit, ThemeNode
from .store import GraphStore


def define_theme(store: GraphStore, label: str, description: str,
                 members: list[str]) -> str:
    """Create a theme node with an embedded description unit; its id derives from ``label``."""
    theme = ThemeNode(label=label, members=tuple(members))
    if theme.id in store.themes:
        raise DuplicateLabel(label)
    for member in members:
        if member not in store.works:
            raise UnknownMember(member)
    store.add_unit(TextUnit(id=theme.description_unit, text=description))
    store.add_theme(theme)
    return theme.id


def theme_scope(store: GraphStore, theme: str, t: date, policy,
                window: tuple[date, date] | None = None) -> set[str]:
    """Union of each member's hierarchical scope at ``t`` under ``policy``.

    Each member's scope is one pass over its slice of the store's time
    index (see ``resolve_scope``); under action_time each member bisects
    the index's sorted action dates, so no member reads the actions.
    """
    from .temporal import resolve_scope  # local import avoids a module cycle

    node = store.themes.get(theme)
    if node is None:
        raise UnknownTheme(theme)
    out: set[str] = set()
    for member in node.members:
        out |= resolve_scope(store, member, t, policy, window=window)
    return out
