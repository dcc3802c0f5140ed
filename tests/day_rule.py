"""The day rule stated plainly: which works each action of a store closes and opens.

``GraphStore.replay`` derives an action's effects from its event and the
work tree. This is the same rule written as directly as it reads, for the
tests to hold the engine's versions and ``produced_by`` to: a day at a
time in (effective date, id) order, first every action's own effects, then
each roll in id order, from the target's parent up to the first ancestor
whose version already opens that day.
"""

from __future__ import annotations

from itertools import groupby

from normgraph.model import ActionType, ctv_id
from normgraph.store import GraphStore


def effects(store: GraphStore) -> dict[str, tuple[set[str], set[str]]]:
    """Action id -> (the works it terminates, the works it produces)."""
    actions = sorted(store.actions.values(), key=lambda a: (a.effective_date, a.id))
    creates = {a.id for a in actions if a.inserts or a.action_type is ActionType.ENACTMENT}
    created = {urn for a in actions if a.id in creates for urn in a.targets}
    out: dict[str, tuple[set[str], set[str]]] = {}
    opened_on: dict[str, object] = {}
    for day, group in groupby(actions, key=lambda a: a.effective_date):
        group = list(group)
        for a in group:
            closes, opens = out[a.id] = (set(), set())
            if a.id in creates:
                todo = list(a.targets)
                while todo:
                    urn = todo.pop()
                    opens.add(urn)
                    todo += [kid for kid in store.children.get(urn, ()) if kid not in created]
            else:
                closes.add(a.targets[0])
                if a.action_type is ActionType.AMENDMENT:
                    opens.add(a.targets[0])
            opened_on.update(dict.fromkeys(opens, day))
        for a in group:
            if a.action_type is ActionType.ENACTMENT:
                continue
            up = store.works[a.targets[0]].parent
            while up is not None and opened_on.get(up) != day:
                out[a.id][0].add(up)
                out[a.id][1].add(up)
                opened_on[up] = day
                up = store.works[up].parent
    return out


def produced_by(store: GraphStore) -> dict[str, str]:
    """CTV id -> the action that opened it."""
    return {ctv_id(urn, store.actions[aid].effective_date): aid
            for aid, (_, opens) in effects(store).items() for urn in opens}
