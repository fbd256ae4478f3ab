"""Logical language: terms, atoms, TGDs, conjunctive queries and parsing.

This package implements the vocabulary of Section 3 of the paper
("Preliminaries"): constants, variables, atoms, tuple-generating
dependencies (TGDs, a.k.a. existential rules), conjunctive queries (CQs)
and unions of conjunctive queries (UCQs), together with substitutions,
most-general unifiers, a textual Datalog±-style syntax, and
pretty-printing.
"""

from repro.lang.atoms import Atom, Position
from repro.lang.errors import (
    ParseError,
    ReproError,
    SafetyError,
    SignatureError,
)
from repro.lang.parser import (
    parse_atom,
    parse_database,
    parse_program,
    parse_query,
    parse_tgd,
    parse_ucq,
)
from repro.lang.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.lang.signature import Signature
from repro.lang.spans import LineIndex, Span, offset_to_line_col
from repro.lang.substitution import Substitution
from repro.lang.terms import Constant, Null, Term, Variable, fresh_variable
from repro.lang.tgd import TGD
from repro.lang.unify import mgu, mgu_atoms, unifiable

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "LineIndex",
    "Null",
    "ParseError",
    "Position",
    "ReproError",
    "SafetyError",
    "Signature",
    "SignatureError",
    "Span",
    "Substitution",
    "TGD",
    "Term",
    "UnionOfConjunctiveQueries",
    "Variable",
    "fresh_variable",
    "mgu",
    "mgu_atoms",
    "offset_to_line_col",
    "parse_atom",
    "parse_database",
    "parse_program",
    "parse_query",
    "parse_tgd",
    "parse_ucq",
    "unifiable",
]
