"""Project manifests: the unit ``repro check`` analyzes.

A *project* bundles the artifacts of one OBDA deployment -- ontology,
query workload, mapping assertions and source data -- so the checkers
can validate them *against each other* (a single-file lint cannot see
that a rule is dead for this workload, or that a mapping's target
disagrees with the ontology's arity).

On disk a project is a ``project.json`` manifest::

    {
      "ontology": "ontology.dlp",
      "queries": "queries.dlp",
      "mappings": "mappings.dlp",
      "data": "data.dlp"
    }

Paths are relative to the manifest; only ``ontology`` is required.  A
directory containing a ``project.json`` is accepted wherever a manifest
path is.  Member files use the DLGP-style syntax of
:mod:`repro.lang.parser` (mappings: ``source_body ~> target_atom``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.data.database import Database
from repro.lang.atoms import Atom
from repro.lang.errors import ParseError, ReproError
from repro.lang.parser import _Parser, parse_database, parse_program
from repro.lang.queries import ConjunctiveQuery
from repro.lang.tgd import TGD
from repro.obda.mappings import MappingAssertion, parse_mappings

MANIFEST_NAME = "project.json"

_MANIFEST_KEYS = frozenset({"ontology", "queries", "mappings", "data"})


@dataclass(frozen=True)
class Project:
    """One OBDA project: the cross-artifact input of ``repro check``.

    Attributes:
        rules: the ontology (TGDs).
        queries: the query workload (possibly empty, possibly of mixed
            arities -- this is a *set of queries*, not a UCQ).
        mappings: GAV assertions, or None when the project states its
            data directly in the ontology vocabulary.
        data: the source database, or None when unknown.
        path: display path for reports.
        source_text: the ontology text (rule spans index into it).
    """

    rules: tuple[TGD, ...]
    queries: tuple[ConjunctiveQuery, ...]
    mappings: tuple[MappingAssertion, ...] | None = None
    data: Database | None = None
    path: str = "<project>"
    source_text: str | None = None


def parse_queries(text: str) -> tuple[ConjunctiveQuery, ...]:
    """Parse a workload file: CQs separated by periods/newlines.

    Unlike :func:`repro.lang.parser.parse_ucq`, the queries are kept
    separate and may have different arities -- a workload is a set of
    independent queries, not one union.
    """
    queries: list[ConjunctiveQuery] = []
    with _Parser(text) as parser:
        while not parser.at_end():
            queries.append(parser.query())
            parser.statement_separator()
    return tuple(queries)


def _resolve_manifest(path: Path) -> Path:
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.is_file():
        raise ReproError(f"cannot read project manifest: {path}")
    return path


def _read_member(base: Path, relative: object, key: str) -> tuple[Path, str]:
    if not isinstance(relative, str):
        raise ReproError(
            f"project manifest key {key!r} must be a path string, "
            f"got {relative!r}"
        )
    member = base / relative
    try:
        return member, member.read_text()
    except OSError as error:
        raise ReproError(f"cannot read project {key} file: {error}") from None


def load_project(path: str | Path) -> Project:
    """Load a project from a manifest (or a directory containing one).

    Raises :class:`~repro.lang.errors.ReproError` on unreadable or
    malformed input (the CLI maps this to exit code 2), including parse
    errors in member files -- a project that does not parse has no
    cross-artifact structure to check.
    """
    manifest_path = _resolve_manifest(Path(path))
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as error:
        raise ReproError(f"cannot read project manifest: {error}") from None
    except json.JSONDecodeError as error:
        raise ReproError(
            f"malformed project manifest {manifest_path}: {error}"
        ) from None
    if not isinstance(manifest, dict):
        raise ReproError(
            f"project manifest {manifest_path} must be a JSON object"
        )
    unknown = set(manifest) - _MANIFEST_KEYS
    if unknown:
        raise ReproError(
            f"unknown project manifest keys: {', '.join(sorted(unknown))} "
            f"(expected a subset of {', '.join(sorted(_MANIFEST_KEYS))})"
        )
    if "ontology" not in manifest:
        raise ReproError(
            f"project manifest {manifest_path} lacks the required "
            "'ontology' key"
        )

    base = manifest_path.parent

    def fail_parse(member: Path, error: ParseError) -> ReproError:
        return ReproError(f"{member}: {error}")

    member, ontology_text = _read_member(base, manifest["ontology"], "ontology")
    ontology_path = member
    try:
        rules = parse_program(ontology_text)
    except ParseError as error:
        raise fail_parse(member, error) from None

    queries: tuple[ConjunctiveQuery, ...] = ()
    if "queries" in manifest:
        member, text = _read_member(base, manifest["queries"], "queries")
        try:
            queries = parse_queries(text)
        except ParseError as error:
            raise fail_parse(member, error) from None

    mappings: tuple[MappingAssertion, ...] | None = None
    if "mappings" in manifest:
        member, text = _read_member(base, manifest["mappings"], "mappings")
        try:
            mappings = parse_mappings(text)
        except ParseError as error:
            raise fail_parse(member, error) from None

    data: Database | None = None
    if "data" in manifest:
        member, text = _read_member(base, manifest["data"], "data")
        try:
            facts: tuple[Atom, ...] = parse_database(text)
        except ParseError as error:
            raise fail_parse(member, error) from None
        data = Database(facts)

    # Reports display the ontology member: that is the file the rule
    # spans index into (the manifest itself carries no checked syntax).
    return Project(
        rules=rules,
        queries=queries,
        mappings=mappings,
        data=data,
        path=str(ontology_path),
        source_text=ontology_text,
    )
