from __future__ import annotations

import copy
import pickle
import random
from datetime import date

import pytest

from normgraph.evaluation import GroundTruth, TruthQuery
from normgraph.ingest import (
    ComponentRecord, EventFile, EventRecord, NormMeta, SourceDocument, ThemeSpec, TranslationFile)
from normgraph.model import (
    ActionNode,
    ActionType,
    Aspect,
    ComponentType,
    FrozenInstanceError,
    LanguageVersion,
    PRESENTATION_KEYS,
    TemporalVersion,
    TextUnit,
    ThemeNode,
    Violation,
    WorkNode,
    clv_id,
    ctv_id,
    metadata_tuple,
    metadata_unit_id,
    parse_iso_date,
    replace,
    theme_id_for,
    urn_fragment,
    urn_norm,
    validate_graph,
)
from normgraph.planner import Answer, QueryPattern, StructuredQuery
from normgraph.retrieval import RetrievalHit, RetrievalMode, RetrievalRequest
from normgraph.store import GraphStore
from normgraph.temporal import MembershipPolicy, SnapshotFragment, SnapshotPolicy, TemporalScope
from normgraph.themes import define_theme

import synthcorpus


class TestParseIsoDate:
    def test_reads_a_calendar_date(self):
        assert parse_iso_date("2000-02-14") == date(2000, 2, 14)

    @pytest.mark.parametrize("value", [
        "20000214",  # basic format: read by date.fromisoformat from Python 3.11 on
        "2000-W07-1",  # ISO week date: likewise
        "2000-045",  # ordinal date
        "2000-02-14T00:00", "2000-02-14 ", "2000-02-14\n", "2000-2-14",
        "２０００-02-14",  # digits that are not ASCII
        "2000-13-01", "2000-02-30", "", None, 20000214,
    ])
    def test_rejects_anything_else(self, value):
        with pytest.raises(ValueError, match="not a YYYY-MM-DD date"):
            parse_iso_date(value)


def ctv(work: str, start: str, end: str | None = None) -> TemporalVersion:
    return TemporalVersion(
        work,
        date.fromisoformat(start),
        date.fromisoformat(end) if end else None,
    )


class TestTemporalVersionContains:
    def test_paper_1999_lookup_hits_original_version(self):
        assert ctv("urn:x", "1988-10-05", "2000-02-15").contains(date(1999, 6, 1))

    def test_start_boundary_is_inclusive(self):
        assert ctv("urn:x", "1988-10-05").contains(date(1988, 10, 5))

    def test_end_boundary_is_exclusive(self):
        # "valid until 2010-02-03" is stored as valid_end 2010-02-04
        version = ctv("urn:x", "2000-02-15", "2010-02-04")
        assert version.contains(date(2010, 2, 3))
        assert not version.contains(date(2010, 2, 4))

    def test_before_start(self):
        assert not ctv("urn:x", "1988-10-05").contains(date(1980, 1, 1))


class TestTemporalVersionConstruction:
    @pytest.mark.parametrize("end", [date(2000, 1, 2), date(2000, 1, 1)], ids=["equal", "before"])
    def test_start_must_precede_end(self, end):
        with pytest.raises(ValueError, match=f"valid_start 2000-01-02 must precede valid_end {end}"):
            TemporalVersion("urn:x", date(2000, 1, 2), end)

    def test_closing_runs_the_same_check(self):
        with pytest.raises(ValueError, match="must precede valid_end"):
            replace(ctv("urn:x", "2000-01-02"), valid_end=date(2000, 1, 2))
        closed = replace(ctv("urn:x", "2000-01-02"), valid_end=date(2000, 1, 3))
        assert (closed.id, closed.valid_end) == ("urn:x@2000-01-02", date(2000, 1, 3))

    def test_open_version(self):
        version = ctv("urn:x", "1988-10-05")
        assert version.valid_end is None
        assert version.contains(date(9999, 12, 31))


class TestWorkNodeUrn:
    def test_fragment_and_norm_urn(self):
        work = WorkNode("urn:lex:x;1988!art6_cpt", ())
        assert work.fragment == urn_fragment(work.urn) == "art6_cpt"
        assert work.norm_urn == urn_norm(work.urn) == "urn:lex:x;1988"

    def test_norm_level_urn_has_no_fragment(self):
        work = WorkNode("urn:lex:x;1988", ())
        assert work.fragment is urn_fragment(work.urn) is None
        assert work.norm_urn == "urn:lex:x;1988"

    def test_empty_urn_rejected(self):
        with pytest.raises(ValueError, match="work urn must be non-empty"):
            WorkNode("", ())

    def test_aliases_are_part_of_a_works_equality(self):
        assert WorkNode("urn:x", ("A",)) != WorkNode("urn:x", ("B",))
        assert WorkNode("urn:x", ("A",)) == WorkNode("urn:x", ("A",))


class TestDerivedFields:
    """Ids, text units and description units are built by the node, never passed in."""

    TV = ctv("urn:x", "2000-01-01")
    LV = LanguageVersion("urn:x@2000-01-01", "pt")
    ACTION = ActionNode("act:x", ActionType.ENACTMENT, date(2000, 1, 1), date(2000, 1, 1),
                        targets=("urn:x",))
    THEME = ThemeNode("X", ("urn:x",))

    def test_each_node_derives_its_fields(self):
        assert self.TV.id == ctv_id("urn:x", date(2000, 1, 1)) == "urn:x@2000-01-01"
        assert self.LV.id == clv_id("urn:x@2000-01-01", "pt")
        assert self.LV.text_unit == f"tu:{self.LV.id}"
        assert self.ACTION.description_unit == "tu:act:x:desc"
        assert self.THEME.id == theme_id_for("X") == "theme:x"
        assert self.THEME.description_unit == "tu:theme:x:desc"

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: TemporalVersion(id="urn:x@1999-01-01", work="urn:x",
                                             valid_start=date(2000, 1, 1)), id="ctv-id"),
        pytest.param(lambda: LanguageVersion(id="other", temporal_version="urn:x@2000-01-01",
                                             language="pt"), id="clv-id"),
        pytest.param(lambda: LanguageVersion(temporal_version="urn:x@2000-01-01",
                                             language="pt", text_unit="tu:other"),
                     id="clv-text_unit"),
        pytest.param(lambda: ActionNode("act:x", ActionType.ENACTMENT, date(2000, 1, 1),
                                        date(2000, 1, 1), description_unit=""),
                     id="action-description_unit"),
        pytest.param(lambda: ThemeNode(id="theme:y", label="X"), id="theme-id"),
        pytest.param(lambda: ThemeNode("X", description_unit="tu:other"),
                     id="theme-description_unit"),
    ])
    def test_a_constructor_takes_no_derived_field(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("node, change", [
        pytest.param(TV, {"id": "urn:x@1999-01-01"}, id="ctv-id"),
        pytest.param(LV, {"id": "other"}, id="clv-id"),
        pytest.param(LV, {"text_unit": "tu:other"}, id="clv-text_unit"),
        pytest.param(ACTION, {"description_unit": ""}, id="action-description_unit"),
        pytest.param(THEME, {"id": "theme:y"}, id="theme-id"),
        pytest.param(THEME, {"description_unit": ""}, id="theme-description_unit"),
    ])
    def test_replace_takes_no_derived_field(self, node, change):
        with pytest.raises(ValueError):
            replace(node, **change)

    def test_replace_rederives_from_the_new_fields(self):
        assert replace(self.TV, valid_start=date(2001, 1, 1)).id == "urn:x@2001-01-01"
        assert replace(self.LV, language="en").text_unit == "tu:urn:x@2000-01-01#en"
        assert replace(self.ACTION, id="act:y").description_unit == "tu:act:y:desc"
        assert replace(self.THEME, label="Y").id == "theme:y"
        assert replace(self.THEME, label="Y").description_unit == "tu:theme:y:desc"


# One node of each kind that load or the replay builds, every field set.
_NODES = {
    "work": WorkNode("urn:x!art1", ("Art. 1",), ComponentType.ARTICLE, "urn:x", 0,
                     (("label", "Art. 1"),)),
    "ctv": ctv("urn:x", "2000-01-01", "2001-01-01"),
    "clv": LanguageVersion("urn:x@2000-01-01", "pt"),
    "action": ActionNode("act:x", ActionType.AMENDMENT, date(2000, 1, 1), date(2000, 1, 1),
                         "urn:s!art2", ("urn:x",), "amended", "urn:s"),
    "unit": TextUnit("tu:x", "Text.", True),
}
_NORM = NormMeta("urn:x", "Act X", date(2000, 1, 1), "pt", "AX", ("X",), (("k", "v"),))
_COMPONENT = ComponentRecord("art1", ComponentType.ARTICLE, 0, "Heading", "Art. 1", "Text.",
                             True, ("A1",), (ComponentRecord("art1_cpt", ComponentType.CAPUT, 0),))
_SCOPE = TemporalScope("interval", date(2000, 1, 1), date(2001, 1, 1),
                       SnapshotPolicy.SNAPSHOT_FIRST)
_EVENT = EventRecord(ActionType.AMENDMENT, "urn:x!art1", date(2000, 1, 1), date(2000, 2, 1),
                     "art2", "Art. 2", "amended", (("pt", "Texto."),), (("pt", True),),
                     ({"fragment": "art9"},), "x.satev.json")
_TRUTH = TruthQuery("q1", QueryPattern.IMPACT_ANALYSIS, {"target": "art1"},
                    frozenset({"urn:x@2000-01-01"}), frozenset({("act:x", "urn:x")}),
                    (("act:x",),))
# One record of every other kind, every field set.
_RECORDS = {
    **_NODES,
    "theme": ThemeNode("X", ("urn:x",)),
    "violation": Violation("UrnFormat", "a message", ("urn:x",)),
    "query": StructuredQuery(QueryPattern.RETRIEVE, "art1", "theme:x", _SCOPE, "text", "en",
                             MembershipPolicy.LIFETIME, 3, RetrievalMode.LEXICAL,
                             frozenset({Aspect.METADATA}), False, True),
    "answer": Answer(QueryPattern.POINT_IN_TIME, "Text.", (("urn:x", "urn:x@2000-01-01", "c"),),
                     ("act:x",), {"k": 8}, {"steps": []}, 1.0),
    "request": RetrievalRequest("text", frozenset({"urn:x"}), date(2000, 1, 1),
                                frozenset({Aspect.CONTENT}), "pt", 3, RetrievalMode.HYBRID,
                                False, True),
    "hit": RetrievalHit("tu:x", 0.5, ("urn:x", "urn:x@2000-01-01", "c"), Aspect.CONTENT),
    "scope": _SCOPE,
    "fragment": SnapshotFragment("urn:x", "urn:x@2000-01-01", "urn:x@2000-01-01#pt", "Text."),
    "truth-query": _TRUTH,
    "ground-truth": GroundTruth((_TRUTH,), date(2000, 1, 1)),
    "component": _COMPONENT,
    "norm-meta": _NORM,
    "theme-spec": ThemeSpec("X", "About x.", ("art1",)),
    "source-document": SourceDocument(_NORM, (_COMPONENT,), (ThemeSpec("X", "About x."),)),
    "event": _EVENT,
    "event-file": EventFile(_NORM, (_EVENT,), (ThemeSpec("X", "About x."),)),
    "translation": TranslationFile("urn:x", "en", date(2000, 1, 1), (("art1", "Text."),), False),
}


class TestRecords:
    """Every record kind compares, hashes, copies and pickles by its fields."""

    @pytest.mark.parametrize("record", _RECORDS.values(), ids=_RECORDS.keys())
    def test_copies_and_pickles_rebuild_an_equal_record(self, record):
        for rebuilt in (copy.copy(record), copy.deepcopy(record),
                        pickle.loads(pickle.dumps(record))):
            assert type(rebuilt) is type(record) and rebuilt is not record
            assert rebuilt == record
            assert [getattr(rebuilt, name) for name in record._fields] == [
                getattr(record, name) for name in record._fields]

    @pytest.mark.parametrize("record", _RECORDS.values(), ids=_RECORDS.keys())
    def test_replace_rebuilds_with_the_changes(self, record):
        assert replace(record) == record
        name = record._args[-1]
        changed = replace(record, **{name: None})
        assert getattr(changed, name) is None and changed != record
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)

    @pytest.mark.parametrize("record", _RECORDS.values(), ids=_RECORDS.keys())
    def test_replace_takes_no_derived_field(self, record):
        for name in record._derived:
            with pytest.raises(ValueError, match=f"{name} is derived"):
                replace(record, **{name: "other"})
        derives = {kind for kind, record in _RECORDS.items() if record._derived}
        assert derives == {"ctv", "clv", "action", "theme"}

    @pytest.mark.parametrize("record", _RECORDS.values(), ids=_RECORDS.keys())
    def test_a_copy_is_equal_and_hashes_alike(self, record):
        assert None not in [getattr(record, name) for name in record._fields]  # every field set
        assert record == copy.copy(record) and record != object()
        if not isinstance(record, (Answer, TruthQuery, GroundTruth, EventRecord, EventFile)):
            # A record holding a dict (or a record of one) is unhashable, as a tuple of it is.
            assert hash(record) == hash(copy.copy(record))

    def test_repr_shows_the_fields(self):
        assert repr(_NODES["clv"]) == (
            "LanguageVersion(id='urn:x@2000-01-01#pt', temporal_version='urn:x@2000-01-01', "
            "language='pt', text_unit='tu:urn:x@2000-01-01#pt')")
        assert "_label" not in repr(_NODES["work"])


class TestNodesAreImmutable:
    """No slot of a built record can be assigned or deleted: derived fields and caches
    (a work's ``_label``) included."""

    CASES = [pytest.param(node, name, id=f"{kind}-{name}")
             for kind, node in _RECORDS.items() for name in type(node).__slots__]

    @pytest.mark.parametrize("node, name", CASES)
    def test_assigning_a_field_raises(self, node, name):
        before = getattr(node, name)
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, "other")
        assert getattr(node, name) == before

    @pytest.mark.parametrize("node, name", CASES)
    def test_deleting_a_field_raises(self, node, name):
        before = getattr(node, name)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)
        assert getattr(node, name) == before

    def test_a_name_that_is_no_field_cannot_be_set_either(self):
        for node in _RECORDS.values():
            with pytest.raises(FrozenInstanceError):
                node.note = "other"
            assert not hasattr(node, "note")
        for name in ("label", "_label"):
            with pytest.raises(FrozenInstanceError):
                setattr(_NODES["work"], name, "other")

    def test_a_works_label_is_built_once_and_kept(self):
        work = WorkNode("urn:x!art1", (), metadata=(("label", "Art. 1"),))
        assert work._label is None
        assert work.label == "Art. 1" and work._label is work.label
        assert WorkNode("urn:x!art1", ()).label == "art1"
        assert WorkNode("urn:x", ()).label == "urn:x"
        # Read or not, the label is no part of a work's value.
        assert work == WorkNode("urn:x!art1", (), metadata=(("label", "Art. 1"),))
        assert hash(work) == hash(WorkNode("urn:x!art1", (), metadata=(("label", "Art. 1"),)))


def _two_version_store() -> GraphStore:
    """Minimal store: one norm work, enacted 2000-01-01 and amended 2000-06-15."""
    store = GraphStore()
    urn = "urn:test:n"
    store.add_work(WorkNode(urn=urn, aliases=(), component_type=ComponentType.OTHER))
    enacted, amended = date(2000, 1, 1), date(2000, 6, 15)
    store.replay([
        ActionNode(id="act:e", action_type=ActionType.ENACTMENT, enactment_date=enacted,
                   effective_date=enacted, targets=(urn,)),
        ActionNode(id="act:a", action_type=ActionType.AMENDMENT, enactment_date=amended,
                   effective_date=amended, targets=(urn,)),
    ])
    return store


class TestActionShape:
    """An action's constructor refuses a shape no event has."""

    DAY = date(2000, 1, 1)

    @pytest.mark.parametrize("action_type, fields, reason", [
        pytest.param(ActionType.ENACTMENT, {"targets": ("urn:a", "urn:b")}, "2 targets",
                     id="enactment-of-two"),
        pytest.param(ActionType.ENACTMENT, {"targets": ()}, "0 targets", id="enactment-of-none"),
        pytest.param(ActionType.ENACTMENT, {"targets": ("urn:a",), "source_provision": "urn:s"},
                     "an enactment cites no source provision", id="enactment-citing-a-provision"),
        pytest.param(ActionType.ENACTMENT, {"targets": ("urn:a",), "inserts": True},
                     "only an amendment inserts, not this enactment", id="enactment-inserting"),
        pytest.param(ActionType.AMENDMENT, {"targets": ("urn:a", "urn:b")}, "2 targets",
                     id="amendment-of-two"),
        pytest.param(ActionType.REPEAL, {"targets": ()}, "0 targets", id="repeal-of-none"),
        pytest.param(ActionType.REPEAL, {"targets": ("urn:a",), "inserts": True},
                     "only an amendment inserts, not this repeal", id="repeal-inserting"),
        pytest.param(ActionType.AMENDMENT, {"targets": (), "inserts": True}, "0 targets",
                     id="insertion-of-none"),
        pytest.param(ActionType.AMENDMENT, {"targets": ("urn:a",),
                                            "enactment_date": date(2000, 1, 2)},
                     "enactment_date 2000-01-02 is after effective_date 2000-01-01",
                     id="enacted-after-it-takes-effect"),
    ])
    def test_a_shape_no_event_has_is_refused(self, action_type, fields, reason):
        fields = {"enactment_date": self.DAY, **fields}
        with pytest.raises(ValueError, match=reason):
            ActionNode("act:x", action_type, effective_date=self.DAY, **fields)

    def test_an_insertion_may_have_several_targets(self):
        action = ActionNode("act:x", ActionType.AMENDMENT, self.DAY, self.DAY,
                            targets=("urn:a", "urn:b"), inserts=True)
        assert action.targets == ("urn:a", "urn:b")


class TestValidateGraph:
    def test_fixture_graph_is_clean(self, fixture_store):
        assert validate_graph(fixture_store) == []

    def test_a_parentless_work_is_a_norm_whose_urn_holds_no_fragment(self):
        store = GraphStore()
        store.add_work(WorkNode("urn:n", ()))
        store.add_work(WorkNode("urn:n!art1", ()))
        assert [str(v) for v in validate_graph(store)] == [
            "UrnFormat: a parentless work's urn holds '!' [urn:n!art1]"]

    def test_a_metadata_unit_must_belong_to_a_work(self):
        store = _two_version_store()
        for owner in ("urn:test:n", "urn:test:n@2000-01-01"):
            store.add_unit(TextUnit(f"tu:{owner}:meta:k", ""))
        # Neither owner has a fact "k", so no node names either unit.
        unnamed = [v.nodes for v in validate_graph(store) if v.code == "UnnamedUnit"]
        assert unnamed == [("tu:urn:test:n:meta:k",), ("tu:urn:test:n@2000-01-01:meta:k",)]

    def test_every_unit_must_be_one_a_node_names(self):
        store = _two_version_store()
        for action in store.actions.values():
            store.add_unit(TextUnit(action.description_unit, "An event."))
        urn = "urn:test:n"
        store.works[urn] = replace(store.works[urn], metadata=metadata_tuple({"subject": "water"}))
        store.add_unit(TextUnit(metadata_unit_id(urn, "subject"), "About water."))
        lv = LanguageVersion(f"{urn}@2000-01-01", "pt")
        store.add_clv(lv)
        store.add_unit(TextUnit(lv.text_unit, "Texto."))
        theme = define_theme(store, "Water", "About water.", [urn])
        assert validate_graph(store) == []
        # Each is the id a node names, extended or with another key.
        strays = [
            TextUnit(metadata_unit_id(urn, "object"), "About land."),
            TextUnit(f"{lv.text_unit}:old", "Texto antigo."),
            TextUnit("tu:act:a:desc:2", "Another."),
            TextUnit(f"{store.themes[theme].description_unit}:2", "About water again."),
        ]
        for unit in strays:
            store.add_unit(unit)
        assert [str(v) for v in validate_graph(store)] == [
            f"UnnamedUnit: unit is named by no node [{unit.id}]" for unit in strays]

    def test_an_action_needs_its_own_description_unit(self):
        store = _two_version_store()
        missing = [v.nodes for v in validate_graph(store) if v.code == "DanglingReference"]
        assert missing == [("act:e", "tu:act:e:desc"), ("act:a", "tu:act:a:desc")]
        for action in store.actions.values():
            store.add_unit(TextUnit(action.description_unit, "An event."))
        assert validate_graph(store) == []

    def test_an_action_target_and_a_source_provision_must_name_works(self):
        store = _two_version_store()
        day = date(2001, 1, 1)
        # The replay leaves a target that names no work alone.
        store.replay([ActionNode("act:m", ActionType.ENACTMENT, day, day,
                                 targets=("urn:test:m",))])
        assert "urn:test:m" not in store.versions
        for action in store.actions.values():
            store.add_unit(TextUnit(action.description_unit, "An event."))
        # Only None names no node: "" must name one too.
        store.actions["act:a"] = replace(store.actions["act:a"], source_provision="",
                                         targets=("urn:test:m",))
        violations = validate_graph(store)
        dangling = [v.nodes for v in violations if v.code == "DanglingReference"]
        assert dangling == [("act:a", ""), ("act:a", "urn:test:m"), ("act:m", "urn:test:m")]
        # References are checked first.
        assert [v.code for v in violations[:3]] == ["DanglingReference"] * 3

    def test_each_fact_in_a_works_metadata_needs_its_own_metadata_unit(self):
        store = _two_version_store()
        for action in store.actions.values():
            store.add_unit(TextUnit(action.description_unit, "An event."))
        urn = "urn:test:n"
        facts = {"subject": "water", "succeeds": "the old act"}
        presentation = dict.fromkeys(PRESENTATION_KEYS, "shown")
        store.works[urn] = replace(store.works[urn],
                                   metadata=metadata_tuple({**facts, **presentation}))
        missing = [v.nodes for v in validate_graph(store) if v.code == "MissingMetadataUnit"]
        assert missing == [(urn, metadata_unit_id(urn, key)) for key in sorted(facts)]
        store.add_unit(TextUnit(metadata_unit_id(urn, "subject"), "About water."))
        missing = [v.nodes[1] for v in validate_graph(store) if v.code == "MissingMetadataUnit"]
        assert missing == [metadata_unit_id(urn, "succeeds")]
        store.add_unit(TextUnit(metadata_unit_id(urn, "succeeds"), "It succeeds the old act."))
        assert validate_graph(store) == []

    def test_synthetic_corpora_satisfy_all_invariants(self):
        for seed in range(25):
            corpus = synthcorpus.generate_corpus(seed)
            store = synthcorpus.build_store(corpus)
            assert validate_graph(store) == [], f"seed {seed}"


class TestTilingProperty:
    def test_versions_tile_without_gaps(self, fixture_store):
        for urn in fixture_store.works:
            chain = fixture_store.versions.get(urn, [])
            versions = [fixture_store.ctvs[c] for c in chain]
            for prev, cur in zip(versions, versions[1:]):
                assert prev.valid_end == cur.valid_start
            if versions and versions[-1].valid_end is not None:
                # The action effective on its end closes it.
                assert any(fixture_store.closed_by(action, urn) == versions[-1]
                           for action in fixture_store.actions.values()
                           if action.effective_date == versions[-1].valid_end)

    def test_random_probe_hits_exactly_one_version(self, fixture_store):
        rng = random.Random(7)
        for urn, chain in fixture_store.versions.items():
            versions = [fixture_store.ctvs[c] for c in chain]
            start = versions[0].valid_start.toordinal()
            for _ in range(20):
                t = date.fromordinal(rng.randint(start, start + 15000))
                holders = [v for v in versions if v.contains(t)]
                assert len(holders) <= 1
                if versions[-1].valid_end is None:
                    assert len(holders) == 1
