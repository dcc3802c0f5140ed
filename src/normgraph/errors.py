"""Exception hierarchy shared by all normgraph modules.

Errors fall into three families used by the CLI for exit codes:
query errors (bad or unanswerable query), data errors (broken input
files or graph state), and threshold failures (eval metrics below a
required minimum). ``decode_input`` and ``json_field`` read corpus and
truth files, so a file of the wrong shape raises MalformedInput.
"""

from __future__ import annotations

import json
from datetime import date


class NormGraphError(Exception):
    """Base class for all engine errors."""


class QueryError(NormGraphError):
    """A well-formed request that cannot be answered as posed."""


class DataError(NormGraphError):
    """Malformed input files or an inconsistent graph."""


# -- data / ingest errors ---------------------------------------------------

class MalformedSnapshot(DataError):
    """A snapshot load rejects, located by its file line and, inside a kind
    record, by the record's kind, the row (counted from 0) and the column."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None,
                 kind: str | None = None, row: int | None = None, column: str | None = None):
        locus = f"{path or '<snapshot>'}:{line}" if line is not None else (path or "<snapshot>")
        if kind is not None:
            locus += f": bad {kind!r} record"
            if row is not None:
                locus += f", row {row}"
            if column is not None:
                locus += f", column {column!r}"
        super().__init__(f"{locus}: {message}")
        self.path = path
        self.line = line
        self.kind = kind
        self.row = row
        self.column = column


class DanglingReference(DataError):
    def __init__(self, referrer: str, missing: str):
        super().__init__(f"{referrer} references missing id {missing!r}")
        self.referrer = referrer
        self.missing = missing


class MalformedInput(DataError):
    """A corpus file (document, event, translation, truth) fails its schema."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(f"{path or '<input>'}: {message}")
        self.path = path


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean"}
_REQUIRED = object()


def _is_json(value, kind: type) -> bool:
    """isinstance, except that a bool is no integer."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def json_field(data, key: str, path: str | None, kind: type = str, default=_REQUIRED,
               items: type | None = None):
    """``data[key]`` from a corpus or truth file, checked against its JSON type.

    ``data`` must be an object and the value must be a ``kind`` (a bool is
    no ``int``); ``items`` is the type of each element of an array, or each
    value of an object. An absent or null field gives ``default``, and
    without one it is missing. Any of these faults raises MalformedInput.
    """
    if not isinstance(data, dict):
        raise MalformedInput(f"expected a JSON object, got {data!r:.60}", path)
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise MalformedInput(f"missing required field {key!r}", path)
        return default
    elements = value.values() if isinstance(value, dict) else value
    if not _is_json(value, kind) or (items and not all(_is_json(v, items) for v in elements)):
        expected = _JSON_TYPES[kind] + (f" of {_JSON_TYPES[items]}s" if items else "")
        raise MalformedInput(f"field {key!r} must be a JSON {expected}, got {value!r:.60}", path)
    return value


def decode_input(source: str | bytes | dict, path: str | None, format_version: int) -> dict:
    """A corpus or truth file's top-level object, read from its bytes, text or parsed value.

    Bytes that are not UTF-8, text that is not JSON, a value that is not an
    object, or a ``format_version`` other than the one given raises
    MalformedInput.
    """
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        data = json.loads(source) if isinstance(source, str) else source
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"not UTF-8: {exc}", path) from None
    except ValueError as exc:
        raise MalformedInput(f"not JSON: {exc}", path) from None
    version = json_field(data, "format_version", path, int, None)
    if version != format_version:
        raise MalformedInput(f"unsupported format_version {version!r}", path)
    return data


class StructureError(DataError):
    """Component nesting violates the structural hierarchy."""


class DuplicateFragment(DataError):
    def __init__(self, fragment: str):
        super().__init__(f"fragment {fragment!r} appears more than once in the document")
        self.fragment = fragment


class DuplicateNorm(DataError):
    def __init__(self, urn: str):
        super().__init__(f"norm {urn!r} is already enacted in this store")
        self.urn = urn


class UnknownTarget(DataError):
    def __init__(self, urn: str):
        super().__init__(f"event targets unknown work {urn!r}")
        self.urn = urn


class NoOpenVersion(DataError):
    def __init__(self, urn: str, at: date):
        super().__init__(f"{urn!r} has no open version at {at.isoformat()}")
        self.urn = urn
        self.at = at


class OutOfOrderEvent(DataError):
    def __init__(self, urn: str, effective: date, current_start: date):
        super().__init__(
            f"event effective {effective.isoformat()} does not follow current version "
            f"start {current_start.isoformat()} of {urn!r}"
        )
        self.urn = urn
        self.effective = effective
        self.current_start = current_start


class TranslationConflict(DataError):
    def __init__(self, ctv_id: str, language: str):
        super().__init__(f"{ctv_id!r} already has a {language!r} language version")
        self.ctv_id = ctv_id
        self.language = language


class LostPrimaryWording(DataError):
    """A version would get wording in its norm's primary language that the next one lacks."""


class UnknownMember(DataError):
    def __init__(self, urn: str):
        super().__init__(f"theme member {urn!r} does not resolve to a work")
        self.urn = urn


class DuplicateLabel(DataError):
    def __init__(self, label: str):
        super().__init__(f"theme label {label!r} is already defined")
        self.label = label


class MismatchedQueryIds(DataError):
    def __init__(self, missing: set[str], extra: set[str]):
        super().__init__(
            f"answer/truth query ids differ (missing={sorted(missing)}, extra={sorted(extra)})"
        )
        self.missing = missing
        self.extra = extra


# -- query errors -----------------------------------------------------------

class UnknownWork(QueryError):
    def __init__(self, urn: str):
        super().__init__(f"unknown work {urn!r}")
        self.urn = urn


class UnknownTheme(QueryError):
    def __init__(self, theme_id: str):
        super().__init__(f"unknown theme {theme_id!r}")
        self.theme_id = theme_id


class UnknownEntry(QueryError):
    def __init__(self, entry: str):
        super().__init__(f"scope entry {entry!r} is neither a work nor a theme")
        self.entry = entry


class NotYetEnacted(QueryError):
    def __init__(self, urn: str, at: date, first_start: date | None = None):
        super().__init__(f"{urn!r} was not yet enacted on {at.isoformat()}")
        self.urn = urn
        self.at = at
        self.first_start = first_start


class RepealedAt(QueryError):
    def __init__(self, urn: str, at: date, repealed_end: date):
        super().__init__(f"{urn!r} was already repealed on {at.isoformat()}")
        self.urn = urn
        self.at = at
        self.repealed_end = repealed_end


class MissingLanguage(QueryError):
    def __init__(self, ctv_id: str, language: str):
        super().__init__(f"{ctv_id!r} has no language version for {language!r} and fallback is disabled")
        self.ctv_id = ctv_id
        self.language = language


class AmbiguousAlias(QueryError):
    def __init__(self, alias: str, candidates: list[str]):
        super().__init__(f"alias {alias!r} matches several works: {', '.join(sorted(candidates))}")
        self.alias = alias
        self.candidates = sorted(candidates)


class UnknownAlias(QueryError):
    def __init__(self, alias: str):
        super().__init__(f"alias {alias!r} matches no work")
        self.alias = alias


class UnplannableQuery(QueryError):
    def __init__(self, reason: str = "query names neither a structural or theme target nor a text"):
        super().__init__(reason)


class MalformedQuery(QueryError):
    """A query value that cannot be read, such as a date that is not YYYY-MM-DD."""


class EmptyScope(QueryError):
    def __init__(self, entry: str):
        super().__init__(f"scope of {entry!r} resolves to no works")
        self.entry = entry


class TermNotFound(QueryError):
    def __init__(self, term: str, entry: str | None = None):
        where = f" within {entry!r}" if entry else ""
        super().__init__(f"term {term!r} does not occur{where}")
        self.term = term
        self.entry = entry
