"""Flat-file catalog of series identities, conjectures and certificates.

The catalog is a line-oriented text database: one record per block of
``key: value`` lines, blocks separated by blank lines.  Three record kinds
exist, each validated on load:

* ``series_identity`` — a concrete series (kernel, base, weight, optional
  denominator factors) together with its claimed closed form ``rhs``, an
  optional left-hand scale factor, and two verification hints that are
  accepted and ignored;
* ``telescoping`` — a partial-sum certificate checked by exact induction;
* ``derivative`` — a rational-derivative certificate with pinned endpoints.

Every record carries a ``status`` (PROVED / CONJECTURAL / CITED /
KNOWN_FALSE) and a ``source`` locator.  Records are immutable after load;
``serialize_catalog`` reproduces the canonical file byte-for-byte.

``loads_catalog`` reads the text in one pass: it splits it into blocks once,
parses the series fields one field kind at a time over all blocks, keeping
each parser's value or exception, and builds the records in catalog order.
Errors come in catalog order too: the first bad record raises its own error,
and a malformed line raises only after every block before it is built.
"""

from __future__ import annotations

import os
import sys
from importlib import resources
from pathlib import Path
from typing import Iterator, Optional, Union

from .closedform import ClosedForm, parse_closed_form
from .exactnum import Frozen
from .kernels import kernel_by_tag
from .seriesmodel import Position, SeriesDef, parse_base, parse_den_factors, parse_weight
from .telescope import DerivativeCert, TelescopingCert, parse_derivative, parse_telescoping

__all__ = [
    "IdentityRecord",
    "Catalog",
    "CatalogError",
    "load_catalog",
    "loads_catalog",
    "serialize_catalog",
    "resolve_catalog_path",
    "CATALOG_ENV",
    "KINDS",
    "STATUSES",
]

CATALOG_ENV = "BSERIES_CATALOG"

KINDS = ("series_identity", "telescoping", "derivative")
STATUSES = ("PROVED", "CONJECTURAL", "CITED", "KNOWN_FALSE")

# Canonical key order used by the serializer; parsing accepts any order.
_KEY_ORDER = (
    "id",
    "kind",
    "kernel",
    "position",
    "base",
    "weight",
    "den",
    "kstart",
    "closed_form",
    "f_rational",
    "arctan_coeff",
    "target",
    "endpoint",
    "rhs",
    "lhs_scale",
    "status",
    "source",
    "source_note",
    "min_digits",
    "budget_terms",
)
_KEY_RANK = {k: i for i, k in enumerate(_KEY_ORDER)}

_COMMON_REQUIRED = frozenset({"id", "kind", "status", "source"})
_COMMON_OPTIONAL = frozenset({"source_note"})
_ALLOWED_BY_KIND = {
    "series_identity": (
        frozenset({"kernel", "position", "base", "weight", "rhs"}),
        frozenset({"den", "kstart", "lhs_scale", "min_digits", "budget_terms"}),
    ),
    "telescoping": (
        frozenset({"kernel", "position", "base", "weight", "den", "closed_form"}),
        frozenset(),
    ),
    "derivative": (
        frozenset({"f_rational", "arctan_coeff", "target"}),
        frozenset({"endpoint"}),
    ),
}


class CatalogError(ValueError):
    """Malformed catalog file: carries the record id / line when known."""


class IdentityRecord(Frozen):
    """One catalog entry, with raw fields kept for exact re-serialization.

    ``budget_terms`` is ignored by ``verify_identity``; it is kept only because
    ``perfbench/worker.py`` passes it on.
    """

    __slots__ = (
        "id", "kind", "status", "source", "fields", "source_note", "series", "rhs", "lhs_scale",
        "budget_terms", "cert",
    )

    def __init__(
        self,
        id: str,
        kind: str,
        status: str,
        source: str,
        fields: dict[str, str],
        source_note: Optional[str] = None,
        series: Optional[SeriesDef] = None,
        rhs: Optional[ClosedForm] = None,
        lhs_scale: Optional[ClosedForm] = None,
        budget_terms: Optional[int] = None,
        cert: Union[TelescopingCert, DerivativeCert, None] = None,
    ):
        self._set(
            id, kind, status, source, fields, source_note, series, rhs, lhs_scale, budget_terms, cert
        )

    def serialize(self) -> str:
        keys = sorted(self.fields, key=_KEY_RANK.__getitem__)
        return "\n".join(f"{k}: {self.fields[k]}" for k in keys) + "\n"

    def __repr__(self):
        return f"IdentityRecord(id={self.id!r}, kind={self.kind!r}, status={self.status!r})"


class Catalog:
    """Immutable ordered collection of records with id lookup and tallies."""

    __slots__ = ("records", "_by_id")

    def __init__(self, records):
        recs = tuple(records)
        by_id: dict[str, IdentityRecord] = {}
        for r in recs:
            if r.id in by_id:
                raise CatalogError(f"duplicate record id {r.id!r}")
            by_id[r.id] = r
        object.__setattr__(self, "records", recs)
        object.__setattr__(self, "_by_id", by_id)

    def __setattr__(self, *_):
        raise AttributeError("Catalog is immutable")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[IdentityRecord]:
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def __contains__(self, rid) -> bool:
        return rid in self._by_id

    def lookup(self, rid: str) -> IdentityRecord:
        try:
            return self._by_id[rid]
        except KeyError:
            raise CatalogError(f"no record with id {rid!r}") from None

    @property
    def tallies(self) -> dict[str, int]:
        out = {s: 0 for s in STATUSES}
        for r in self.records:
            out[r.status] += 1
        return out

    def by_kind(self, kind: str) -> tuple[IdentityRecord, ...]:
        return tuple(r for r in self.records if r.kind == kind)

    def by_status(self, *statuses: str) -> tuple[IdentityRecord, ...]:
        return tuple(r for r in self.records if r.status in statuses)

    def serialize(self) -> str:
        return serialize_catalog(self.records)


def serialize_catalog(records) -> str:
    """Canonical text for a sequence of records (blank-line separated)."""
    return "\n".join(r.serialize() for r in records)


def _positive_int(fields: dict[str, str], key: str, rid: str, line: int) -> Optional[int]:
    if key not in fields:
        return None
    raw = fields[key]
    try:
        n = int(raw)
    except ValueError:
        raise CatalogError(f"record {rid!r} (line {line}): {key} must be an integer, got {raw!r}")
    if n < 1:
        raise CatalogError(f"record {rid!r} (line {line}): {key} must be >= 1, got {n}")
    return n


def _build_record(fields: dict[str, str], line: int, parse) -> IdentityRecord:
    """The record of one block; ``parse(parser, text)`` reads a series field's text."""
    rid = fields.get("id")
    if not rid:
        raise CatalogError(f"record starting at line {line}: missing id")

    def err(msg: str) -> CatalogError:
        return CatalogError(f"record {rid!r} (line {line}): {msg}")

    kind = fields.get("kind")
    if kind not in KINDS:
        raise err(f"kind must be one of {KINDS}, got {kind!r}")
    status = fields.get("status")
    if status not in STATUSES:
        raise err(f"status must be one of {STATUSES}, got {status!r}")
    source = fields.get("source")
    if not source:
        raise err("missing source")

    required, optional = _ALLOWED_BY_KIND[kind]
    allowed = required | optional | _COMMON_REQUIRED | _COMMON_OPTIONAL
    unknown = set(fields) - allowed
    if unknown:
        raise err(f"keys {sorted(unknown)} not allowed for kind {kind}")
    missing = required - set(fields)
    if missing:
        raise err(f"missing required keys {sorted(missing)}")

    series = rhs = lhs_scale = cert = None
    budget_terms = _positive_int(fields, "budget_terms", rid, line)
    kstart = 0
    if "kstart" in fields:
        try:
            kstart = int(fields["kstart"])
        except ValueError:
            raise err(f"kstart must be an integer, got {fields['kstart']!r}")
        if kstart < 0:
            raise err(f"kstart must be >= 0, got {kstart}")

    try:
        if kind == "series_identity":
            root, exp = parse(parse_base, fields["base"])
            series = SeriesDef(
                base_root=root,
                base_exp=exp,
                kernel=kernel_by_tag(fields["kernel"]),
                kernel_pos=Position(fields["position"]),
                weight=parse(parse_weight, fields["weight"]),
                den_factors=parse(parse_den_factors, fields.get("den", "1")),
                k_start=kstart,
            )
            rhs = parse(parse_closed_form, fields["rhs"])
            if "lhs_scale" in fields:
                lhs_scale = parse(parse_closed_form, fields["lhs_scale"])
        elif kind == "telescoping":
            cert = parse_telescoping(
                kernel=fields["kernel"],
                position=fields["position"],
                base=fields["base"],
                weight=fields["weight"],
                den=fields["den"],
                closed_form=fields["closed_form"],
            )
        else:
            cert = parse_derivative(
                f_rational=fields["f_rational"],
                arctan_coeff=fields["arctan_coeff"],
                target=fields["target"],
                endpoint=fields.get("endpoint"),
            )
    except CatalogError:
        raise
    except (ValueError, KeyError, ZeroDivisionError) as e:
        raise err(str(e)) from e
    except RecursionError:
        raise err("expression nested too deeply") from None

    if status == "KNOWN_FALSE" and not rid.startswith("aldawoud"):
        raise err("status KNOWN_FALSE is reserved for the aldawoud discrepancy record")

    return IdentityRecord(
        id=rid,
        kind=kind,
        status=status,
        source=source,
        fields=fields,
        source_note=fields.get("source_note"),
        series=series,
        rhs=rhs,
        lhs_scale=lhs_scale,
        budget_terms=budget_terms,
        cert=cert,
    )


# the series fields, in the order they are parsed over all records, with their defaults
_SERIES_FIELDS = (
    (parse_base, "base", None),
    (parse_weight, "weight", None),
    (parse_den_factors, "den", "1"),
    (parse_closed_form, "rhs", None),
    (parse_closed_form, "lhs_scale", None),
)


def _split(text: str) -> tuple[list[tuple[int, dict[str, str]]], Optional[CatalogError]]:
    """The ``(first line, fields)`` blocks of ``text``, and the first malformed line's error.

    The scan stops at that line and drops the block it is in.
    """
    blocks: list[tuple[int, dict[str, str]]] = []
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            fields = {}
            continue
        if not fields:
            blocks.append((lineno, fields))
        key, sep, value = line.partition(": ")
        # one string per distinct key and value: records hold them for as long as they live
        key, value = sys.intern(key.strip()), sys.intern(value.strip())
        if not sep or not key or not value:
            error = f"expected 'key: value', got {line!r}"
        elif key not in _KEY_RANK:
            error = f"unknown key {key!r}"
        elif key in fields:
            error = f"duplicate key {key!r} in one record"
        else:
            fields[key] = value
            continue
        return blocks[:-1], CatalogError(f"line {lineno}: {error}")
    return blocks, None


def loads_catalog(text: str) -> Catalog:
    """Parse catalog text into records; errors carry record id and line.

    Each series field's text is parsed once per load, all bases first, then
    every weight, den, rhs and lhs_scale; records with the same text share
    its immutable value.  A parser's exception is kept in place of the
    value and raised by the first record that reads it, as the records are
    built in catalog order; a malformed line's error is raised after them.
    """
    blocks, line_error = _split(text)
    parsed: dict = {}
    series = [fields for _, fields in blocks if fields.get("kind") == "series_identity"]
    for parser, key, default in _SERIES_FIELDS:
        for fields in series:
            field_text = fields.get(key, default)
            if field_text is not None and (parser, field_text) not in parsed:
                try:
                    parsed[parser, field_text] = parser(field_text)
                except Exception as e:  # raised by the first record that reads it
                    parsed[parser, field_text] = e

    def parse(parser, field_text: str):
        value = parsed[parser, field_text]
        if isinstance(value, Exception):
            raise value
        return value

    records: list[IdentityRecord] = []
    seen: dict[str, int] = {}
    for line, fields in blocks:
        rec = _build_record(fields, line, parse)
        if rec.id in seen:
            raise CatalogError(f"duplicate record id {rec.id!r} (lines {seen[rec.id]} and {line})")
        seen[rec.id] = line
        records.append(rec)
    if line_error:
        raise line_error
    return Catalog(records)


def load_catalog(path: Union[str, Path]) -> Catalog:
    """Load and validate a catalog file (UTF-8)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise CatalogError(f"cannot read catalog {p}: {e}") from e
    return loads_catalog(text)


def resolve_catalog_path(explicit: Optional[str] = None) -> Path:
    """Flag value > BSERIES_CATALOG environment variable > packaged default."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(CATALOG_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("bseries").joinpath("data/catalog.txt")))
