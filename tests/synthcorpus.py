"""Random corpus generator plus a brute-force replay oracle.

The oracle never touches the aggregation graph: it replays raw event
records against a plain fragment->text mapping and walks the component
tree directly. Engine snapshots must match it string-for-string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta

from normgraph.ingest import EventFile, apply_events, enact, parse_document, parse_event_file
from normgraph.store import GraphStore

WORDS = [
    "alpha", "beta", "gamma", "delta", "omega", "rights", "duty", "tax",
    "land", "water", "trade", "health", "roads", "school", "court",
]


def _text(rng: random.Random, fragment: str, version: int) -> str:
    salt = " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 7)))
    return f"Provision {fragment} version {version}: {salt}."


@dataclass
class SynthCorpus:
    doc: dict
    event_files: list[dict] = field(default_factory=list)

    @property
    def norm_urn(self) -> str:
        return self.doc["norm"]["urn"]

    @property
    def enactment(self) -> date:
        return date.fromisoformat(self.doc["norm"]["publication_date"])

    def events(self) -> list[dict]:
        return [ef["events"][0] for ef in self.event_files]

    def event_dates(self) -> list[date]:
        return sorted({date.fromisoformat(e["effective_date"]) for e in self.events()})


def generate_corpus(seed: int, max_components: int = 10, max_events: int = 15) -> SynthCorpus:
    rng = random.Random(seed)
    pub = date(2000, 1, 1) + timedelta(days=rng.randint(0, 120))
    norm_urn = f"urn:test:norm:{pub.isoformat()};{seed}"

    budget = rng.randint(2, max_components)
    body: list[dict] = []
    art_index = 0
    # Articles always come with a caput; deeper structure is optional.
    while budget >= 2:
        art_index += 1
        art = {
            "fragment": f"art{art_index}",
            "type": "article",
            "children": [],
        }
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
            host["children"].append({
                "fragment": fragment,
                "type": kind,
                "text": _text(rng, fragment, 0),
            })
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

    corpus = SynthCorpus(doc=doc)
    oracle = ReplayOracle(doc, [])
    current = pub + timedelta(days=rng.randint(20, 90))
    # Direct amendments/repeals need a strictly later date than the
    # target's current version start; propagation rolls ancestors too,
    # so each event marks its whole ancestor chain as touched.
    last_event_date: dict[str, date] = {}
    version_counter: dict[str, int] = {}
    fragment_counter = 1000

    def touch(fragment: str, when: date) -> None:
        while fragment:
            last_event_date[fragment] = when
            fragment = oracle.parent.get(fragment) or ""
        last_event_date[""] = when

    for i in range(rng.randint(0, max_events)):
        if rng.random() < 0.75:
            current += timedelta(days=rng.randint(1, 90))
        kind = rng.choices(["amendment", "insertion", "repeal"], weights=[65, 20, 15])[0]
        event: dict | None = None
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
            if child_kind == "article":
                new = {
                    "fragment": f"ins{fragment_counter}",
                    "type": "article",
                    "children": [{
                        "fragment": f"ins{fragment_counter}_cpt",
                        "type": "caput",
                        "text": _text(rng, f"ins{fragment_counter}_cpt", 0),
                    }],
                }
            else:
                new = {
                    "fragment": f"ins{fragment_counter}",
                    "type": child_kind,
                    "text": _text(rng, f"ins{fragment_counter}", 0),
                }
            event = {
                "action_type": "amendment",
                "target": norm_urn if host == "" else f"{norm_urn}!{host}",
                "effective_date": current.isoformat(),
                "new_components": [new],
            }
            # Inserted fragments start their version chain on this date;
            # a same-day follow-up event on them would be out of order.
            last_event_date[new["fragment"]] = date.fromisoformat(event["effective_date"])
            for child in new.get("children", ()):
                last_event_date[child["fragment"]] = date.fromisoformat(event["effective_date"])
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
        if event is None:
            continue
        target_fragment = event["target"].split("!")[-1] if "!" in event["target"] else ""
        touch(target_fragment, date.fromisoformat(event["effective_date"]))
        event_file = {
            "format_version": 1,
            "instrument": {
                "urn": f"urn:test:act:{current.isoformat()};{i}",
                "title": f"Amending Act {i} of {current.year}",
                "short_title": f"AA {i}/{current.year}",
                "publication_date": current.isoformat(),
                "language": "en",
            },
            "events": [event],
        }
        corpus.event_files.append(event_file)
        oracle.apply(event)

    return corpus


def build_store(corpus: SynthCorpus) -> GraphStore:
    """Ingest the corpus through the real engine, without committing."""
    store = GraphStore()
    enact(store, parse_document(corpus.doc))
    apply_events(store, event_files(corpus))
    return store


def event_files(corpus: SynthCorpus) -> list[tuple[str, EventFile]]:
    """The corpus's parsed event files, each named by its place in the corpus."""
    return [(f"e{i:03d}", parse_event_file(file)) for i, file in enumerate(corpus.event_files)]


class ReplayOracle:
    """Whole-document replay: the independent answer for any snapshot date.

    State is a flat fragment tree with per-fragment text; events are
    applied in order with no notion of versions or aggregation.
    """

    def __init__(self, doc: dict, events: list[dict]):
        self.norm_urn = doc["norm"]["urn"]
        self.parent: dict[str, str | None] = {}
        self.children: dict[str, list[str]] = {"": []}
        self.text: dict[str, str | None] = {}
        self.kind: dict[str, str] = {"": "norm"}
        self.alive: set[str] = {""}

        def graft(record: dict, parent: str) -> None:
            fragment = record["fragment"]
            self.parent[fragment] = parent
            self.children.setdefault(fragment, [])
            self.children[parent].append(fragment)
            self.text[fragment] = record.get("text")
            self.kind[fragment] = record["type"]
            self.alive.add(fragment)
            for child in record.get("children", ()):
                graft(child, fragment)

        for record in doc.get("body", ()):
            graft(record, "")
        for event in events:
            self.apply(event)

    def _fragment(self, urn: str) -> str:
        return urn.split("!", 1)[1] if "!" in urn else ""

    def apply(self, event: dict) -> None:
        target = self._fragment(event["target"])
        if event["action_type"] == "repeal":
            self.alive.discard(target)
            return
        if event.get("new_components"):
            def graft(record: dict, parent: str) -> None:
                fragment = record["fragment"]
                self.parent[fragment] = parent
                self.children.setdefault(fragment, [])
                self.children[parent].append(fragment)
                self.text[fragment] = record.get("text")
                self.kind[fragment] = record["type"]
                self.alive.add(fragment)
                for child in record.get("children", ()):
                    graft(child, fragment)

            for record in event["new_components"]:
                graft(record, target)
            return
        language = sorted(event["new_text"])[0]
        self.text[target] = event["new_text"][language]

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

    # -- snapshots ----------------------------------------------------------

    def walk(self) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []

        def visit(fragment: str) -> None:
            if fragment and fragment not in self.alive:
                return
            if fragment and self.text.get(fragment) is not None:
                out.append((f"{self.norm_urn}!{fragment}", self.text[fragment]))
            for child in self.children.get(fragment, ()):
                visit(child)

        visit("")
        return out


def oracle_snapshot(corpus: SynthCorpus, at: date) -> list[tuple[str, str]]:
    """Document text on ``at`` per full replay of all events up to it."""
    oracle = ReplayOracle(corpus.doc, [])
    for event in corpus.events():
        if date.fromisoformat(event["effective_date"]) <= at:
            oracle.apply(event)
    return oracle.walk()
