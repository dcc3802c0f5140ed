"""Snapshots seen row by row, for tests that edit, drop or add one node.

A snapshot holds its meta header, then one record per kind with one JSON
array per column (normgraph.store). These helpers give each node as the row
record ``{"kind": <kind>, "row": [v1, v2, …]}`` that format version 5 wrote
on a line of its own, and write such rows back as kind records, encoded as
``save`` encodes them.
"""

from __future__ import annotations

import json
from pathlib import Path


def encode(record) -> str:
    """A record as save writes it."""
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def read_rows(path: Path) -> tuple[dict, list[dict]]:
    """The snapshot's header and each node's row record, in file order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:]]
    return json.loads(lines[0]), [{"kind": record["kind"], "row": list(row)}
                                  for record in records for row in zip(*record["columns"])]


def write_rows(path: Path, header: dict, rows: list[dict]) -> Path:
    """Write the header, then one record for each kind its columns name, in that order.

    The header is written as given, so its row counts may disagree with ``rows``.
    """
    lines = [encode(header)]
    for kind, keys in header["columns"].items():
        of_kind = [record["row"] for record in rows if record["kind"] == kind]
        lines.append(encode({"kind": kind, "columns": [[row[at] for row in of_kind]
                                                       for at in range(len(keys))]}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


def v5_node_lines(path: Path) -> list[str]:
    """Each node row as the line format version 5 wrote for it, newline included."""
    return [encode(record) + "\n" for record in read_rows(path)[1]]
