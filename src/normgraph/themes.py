"""Thematic communities: curated cross-document groupings of works."""

from __future__ import annotations

import re
from datetime import date

from .errors import DuplicateLabel, UnknownMember, UnknownTheme
from .model import Aspect, TextUnit, ThemeNode
from .store import GraphStore

THEME_PREFIX = "theme:"


def theme_id_for(label: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", label.casefold()).strip("-")
    return f"{THEME_PREFIX}{slug or 'unnamed'}"


def define_theme(store: GraphStore, label: str, description: str,
                 members: list[str]) -> str:
    """Create a theme node with an embedded description unit."""
    theme_id = theme_id_for(label)
    if theme_id in store.themes or any(t.label == label for t in store.themes.values()):
        raise DuplicateLabel(label)
    for member in members:
        if member not in store.works:
            raise UnknownMember(member)
    unit_id = f"tu:{theme_id}:desc"
    store.add_unit(TextUnit(
        id=unit_id,
        aspect=Aspect.THEME_DESCRIPTION,
        owner=theme_id,
        language="en",
        text=description,
    ))
    store.add_theme(ThemeNode(
        id=theme_id, label=label, description_unit=unit_id, members=tuple(members)))
    return theme_id


def theme_scope(store: GraphStore, theme: str, t: date, policy,
                window: tuple[date, date] | None = None) -> set[str]:
    """Union of each member's hierarchical scope at ``t`` under ``policy``."""
    from .temporal import resolve_scope  # local import avoids a module cycle

    node = store.themes.get(theme)
    if node is None:
        raise UnknownTheme(theme)
    out: set[str] = set()
    for member in node.members:
        out |= resolve_scope(store, member, t, policy, window=window)
    return out
