"""Seeded synthetic corpora and the replay oracle the benchmark checks against.

The norm generator reproduces the random draws of the test suite's
``synthcorpus.generate_corpus`` so that 400 norms with seeds 0..399 give the
same node counts, but it lives here so that later changes to the test
generator cannot change the benchmark's workload.  One deliberate difference:
instrument urns and short titles are qualified with the norm's seed, because
unqualified instruments of different norms collide on action ids.

The oracle never touches the engine's graph: it replays the raw event records
against a flat fragment tree and answers "what was the text of this subtree on
date t" by itself.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

WORDS = [
    "alpha", "beta", "gamma", "delta", "omega", "rights", "duty", "tax",
    "land", "water", "trade", "health", "roads", "school", "court",
]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.casefold())


def contains_phrase(text: str, needle: list[str]) -> bool:
    hay = tokenize(text)
    n = len(needle)
    return bool(needle) and any(hay[i:i + n] == needle for i in range(len(hay) - n + 1))


def _text(rng: random.Random, fragment: str, version: int) -> str:
    salt = " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 7)))
    return f"Provision {fragment} version {version}: {salt}."


class ReplayOracle:
    """Flat fragment tree of one norm, replayed event by event.

    Besides the current state it keeps each fragment's creation date, repeal
    date and every wording it ever had, which the benchmark needs to predict
    the outcome class of a query.
    """

    def __init__(self, doc: dict):
        self.norm_urn = doc["norm"]["urn"]
        pub = date.fromisoformat(doc["norm"]["publication_date"])
        self.parent: dict[str, str | None] = {}
        self.children: dict[str, list[str]] = {"": []}
        self.text: dict[str, str | None] = {}
        self.kind: dict[str, str] = {"": "norm"}
        self.alive: set[str] = {""}
        self.created: dict[str, date] = {"": pub}
        self.repealed: dict[str, date] = {}
        self.wordings: dict[str, list[str]] = {}
        for record in doc.get("body", ()):
            self._graft(record, "", pub)

    def _graft(self, record: dict, parent: str, when: date) -> None:
        fragment = record["fragment"]
        self.parent[fragment] = parent
        self.children.setdefault(fragment, [])
        self.children[parent].append(fragment)
        self.text[fragment] = record.get("text")
        self.kind[fragment] = record["type"]
        self.alive.add(fragment)
        self.created[fragment] = when
        if record.get("text") is not None:
            self.wordings[fragment] = [record["text"]]
        for child in record.get("children", ()):
            self._graft(child, fragment, when)

    @staticmethod
    def fragment_of(urn: str) -> str:
        return urn.split("!", 1)[1] if "!" in urn else ""

    def apply(self, event: dict) -> None:
        target = self.fragment_of(event["target"])
        when = date.fromisoformat(event["effective_date"])
        if event["action_type"] == "repeal":
            self.alive.discard(target)
            self.repealed[target] = when
            return
        if event.get("new_components"):
            for record in event["new_components"]:
                self._graft(record, target, when)
            return
        language = sorted(event["new_text"])[0]
        self.text[target] = event["new_text"][language]
        self.wordings.setdefault(target, []).append(self.text[target])

    # -- generator support ------------------------------------------------

    def alive_text_bearing(self) -> set[str]:
        return {f for f in self.alive if f and self.text.get(f) is not None}

    def insertion_hosts(self) -> set[str]:
        hosts = {""}
        for fragment in self.alive:
            if fragment and self.kind[fragment] in ("article", "caput", "paragraph"):
                hosts.add(fragment)
        return hosts

    def child_kind_for(self, host: str) -> str:
        if host == "":
            return "article"
        if self.kind[host] == "article":
            return "paragraph"
        return "item"

    def repealable_leaves(self) -> set[str]:
        return {
            f for f in self.alive_text_bearing()
            if not any(c in self.alive for c in self.children.get(f, ()))
        }

    # -- answers ------------------------------------------------------------

    def walk(self, root: str = "") -> list[tuple[str, str]]:
        """(urn, text) of every alive text-bearing fragment under ``root``."""
        out: list[tuple[str, str]] = []

        def visit(fragment: str) -> None:
            if fragment and fragment not in self.alive:
                return
            if fragment and self.text.get(fragment) is not None:
                out.append((f"{self.norm_urn}!{fragment}", self.text[fragment]))
            for child in self.children.get(fragment, ()):
                visit(child)

        visit(root)
        return out

    def alive_on(self, fragment: str, t: date) -> bool:
        if fragment not in self.created or t < self.created[fragment]:
            return False
        return fragment not in self.repealed or t < self.repealed[fragment]

    def subtree(self, fragment: str) -> list[str]:
        out = [fragment]
        for child in self.children.get(fragment, ()):
            out.extend(self.subtree(child))
        return out


@dataclass
class Norm:
    """One generated norm: its document, its event files and final oracle."""

    seed: int
    doc: dict
    event_files: list[dict] = field(default_factory=list)
    oracle: ReplayOracle | None = None

    @property
    def urn(self) -> str:
        return self.doc["norm"]["urn"]

    @property
    def enactment(self) -> date:
        return date.fromisoformat(self.doc["norm"]["publication_date"])

    def events(self) -> list[dict]:
        return [ef["events"][0] for ef in self.event_files]

    def last_event_date(self) -> date:
        events = self.events()
        return date.fromisoformat(events[-1]["effective_date"]) if events else self.enactment


def generate_norm(seed: int, max_components: int = 10, max_events: int = 15,
                  min_components: int = 2, min_events: int = 0) -> Norm:
    """One norm with a random body and a random amendment history."""
    rng = random.Random(seed)
    pub = date(2000, 1, 1) + timedelta(days=rng.randint(0, 120))
    norm_urn = f"urn:test:norm:{pub.isoformat()};{seed}"

    budget = rng.randint(min_components, max_components)
    body: list[dict] = []
    art_index = 0
    while budget >= 2:
        art_index += 1
        art = {"fragment": f"art{art_index}", "type": "article", "children": []}
        caput = {
            "fragment": f"art{art_index}_cpt",
            "type": "caput",
            "text": _text(rng, f"art{art_index}_cpt", 0),
            "children": [],
        }
        art["children"].append(caput)
        budget -= 2
        for p in range(rng.randint(0, 2)):
            if budget < 1:
                break
            kind, host = rng.choice([("item", caput), ("paragraph", art)])
            fragment = f"art{art_index}_{kind[:3]}{p + 1}"
            host["children"].append({"fragment": fragment, "type": kind,
                                     "text": _text(rng, fragment, 0)})
            budget -= 1
        body.append(art)

    doc = {
        "format_version": 1,
        "norm": {
            "urn": norm_urn,
            "title": f"Test Statute {seed}",
            "short_title": f"TS-{seed}",
            "publication_date": pub.isoformat(),
            "language": "en",
        },
        "body": body,
    }
    norm = Norm(seed=seed, doc=doc)
    oracle = ReplayOracle(doc)
    current = pub + timedelta(days=rng.randint(20, 90))
    last_event_date: dict[str, date] = {}
    version_counter: dict[str, int] = {}
    fragment_counter = 1000

    def touch(fragment: str, when: date) -> None:
        while fragment:
            last_event_date[fragment] = when
            fragment = oracle.parent.get(fragment) or ""
        last_event_date[""] = when

    for i in range(rng.randint(min_events, max_events)):
        if rng.random() < 0.75:
            current += timedelta(days=rng.randint(1, 90))
        kind = rng.choices(["amendment", "insertion", "repeal"], weights=[65, 20, 15])[0]
        if kind == "amendment":
            candidates = sorted(oracle.alive_text_bearing())
            if not candidates:
                continue
            target = rng.choice(candidates)
            if last_event_date.get(target) == current:
                current += timedelta(days=1)
            version_counter[target] = version_counter.get(target, 0) + 1
            event = {
                "action_type": "amendment",
                "target": f"{norm_urn}!{target}",
                "effective_date": current.isoformat(),
                "new_text": {"en": _text(rng, target, version_counter[target])},
            }
        elif kind == "insertion":
            hosts = sorted(oracle.insertion_hosts())
            if not hosts:
                continue
            host = rng.choice(hosts)
            if last_event_date.get(host) == current:
                current += timedelta(days=1)
            fragment_counter += 1
            child_kind = oracle.child_kind_for(host)
            name = f"ins{fragment_counter}"
            if child_kind == "article":
                new = {"fragment": name, "type": "article", "children": [{
                    "fragment": f"{name}_cpt", "type": "caput",
                    "text": _text(rng, f"{name}_cpt", 0)}]}
            else:
                new = {"fragment": name, "type": child_kind, "text": _text(rng, name, 0)}
            event = {
                "action_type": "amendment",
                "target": norm_urn if host == "" else f"{norm_urn}!{host}",
                "effective_date": current.isoformat(),
                "new_components": [new],
            }
            last_event_date[name] = current
            for child in new.get("children", ()):
                last_event_date[child["fragment"]] = current
        else:
            leaves = sorted(oracle.repealable_leaves())
            if not leaves:
                continue
            target = rng.choice(leaves)
            if last_event_date.get(target) == current:
                current += timedelta(days=1)
            event = {
                "action_type": "repeal",
                "target": f"{norm_urn}!{target}",
                "effective_date": current.isoformat(),
            }
        touch(oracle.fragment_of(event["target"]), date.fromisoformat(event["effective_date"]))
        norm.event_files.append({
            "format_version": 1,
            "instrument": {
                # Qualified with the norm's seed: see the module docstring.
                "urn": f"urn:test:act:{current.isoformat()};{seed}.{i}",
                "title": f"Amending Act {i} of {current.year}",
                "short_title": f"AA {seed}.{i}/{current.year}",
                "publication_date": current.isoformat(),
                "language": "en",
            },
            "events": [event],
        })
        oracle.apply(event)
    norm.oracle = oracle
    return norm


def replay_snapshots(norm: Norm, requests: list[tuple[str, date]]) -> dict:
    """Expected point-in-time texts for ``(fragment, t)`` requests of one norm.

    Replays the norm's events in order from the original document and reads
    each request off the replay state once every event up to ``t`` is
    applied. Returns ``{(fragment, t): [(urn, text), ...]}``.
    """
    oracle = ReplayOracle(norm.doc)
    events = norm.events()
    position = 0
    out: dict = {}
    for fragment, t in sorted(set(requests), key=lambda r: r[1]):
        while (position < len(events)
               and date.fromisoformat(events[position]["effective_date"]) <= t):
            oracle.apply(events[position])
            position += 1
        out[(fragment, t)] = oracle.walk(fragment)
    return out


def write_norm(norm: Norm, directory: Path) -> None:
    """Write the norm's document and one file per event into ``directory``.

    File names sort by seed, then by generation order, so the engine's
    (effective date, file name) event order keeps same-day events of a norm
    in the order they were generated.
    """
    stem = f"n{norm.seed:07d}"
    (directory / f"{stem}.satdoc.json").write_text(json.dumps(norm.doc), encoding="utf-8")
    for i, event_file in enumerate(norm.event_files):
        (directory / f"{stem}_e{i:05d}.satev.json").write_text(
            json.dumps(event_file), encoding="utf-8")
