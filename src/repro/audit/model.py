"""AST facts shared by every audit pass.

The audit layer analyzes *Python* source (the project's own modules
and user extension code), not TGD programs, so its input model is an
:mod:`ast` tree per file plus the derived facts the concurrency passes
consume: which classes own :class:`threading.Lock`/``RLock``
attributes, which module-level names are locks, which functions are
``async``, and where inline suppressions sit.

Everything here is a plain syntactic fact extractor -- no flow
analysis.  The passes layer interprets the facts (nested ``with``
blocks become lock-order edges, attribute writes are classified by
their guarding ``with``, ...), and documents each heuristic next to
the diagnostic it powers.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.lang.spans import LineIndex, Span

#: Constructor callables (dotted suffixes) recognized as thread locks.
LOCK_CONSTRUCTORS = frozenset(
    {"threading.Lock", "threading.RLock", "Lock", "RLock"}
)

#: Reentrant constructors: re-acquiring one is safe, not a self-deadlock.
REENTRANT_CONSTRUCTORS = frozenset({"threading.RLock", "RLock"})

#: ``# audit: ok[RL300] reason`` / ``# audit: ok[RL300,RL312] reason``.
_SUPPRESSION = re.compile(
    r"#\s*audit:\s*ok\[(?P<codes>RL\d{3}(?:\s*,\s*RL\d{3})*)\]\s*(?P<reason>\S.*)?"
)


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The dotted callee name of a call, else None."""
    return dotted_name(node.func)


def is_lock_constructor(node: ast.expr) -> str | None:
    """The constructor name when *node* builds a threading lock."""
    if not isinstance(node, ast.Call):
        return None
    name = call_name(node)
    if name is not None and name in LOCK_CONSTRUCTORS:
        return name
    return None


@dataclass(frozen=True)
class LockAttribute:
    """One lock-valued attribute a class owns (``self._lock = Lock()``)."""

    attr: str
    constructor: str
    lineno: int

    @property
    def reentrant(self) -> bool:
        return self.constructor in REENTRANT_CONSTRUCTORS


@dataclass
class ClassModel:
    """Lock-relevant facts of one class definition."""

    name: str
    node: ast.ClassDef
    locks: dict[str, LockAttribute] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )

    @property
    def owns_locks(self) -> bool:
        return bool(self.locks)


class AuditFile:
    """One parsed source file plus its derived audit facts.

    Attributes:
        path: display path of the file (as passed on the CLI).
        text: the source text.
        tree: the parsed module, or None when parsing failed.
        error: the :class:`SyntaxError`, when parsing failed.
        classes: every class definition (any nesting level).
        module_locks: module-level ``NAME = threading.Lock()`` bindings.
        imports: imported-name -> dotted origin (``sleep`` ->
            ``time.sleep`` for ``from time import sleep``).
    """

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.tree: ast.Module | None = None
        self.error: SyntaxError | None = None
        self.classes: list[ClassModel] = []
        self.module_locks: dict[str, LockAttribute] = {}
        self.imports: dict[str, str] = {}
        self._line_offsets: list[int] | None = None
        self._line_index: LineIndex | None = None
        self._suppressions: dict[int, tuple[frozenset[str], bool]] | None = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as error:
            self.error = error
            return
        self._collect()

    # ----------------------------------------------------------------- #
    # Fact collection                                                     #
    # ----------------------------------------------------------------- #

    def _collect(self) -> None:
        assert self.tree is not None
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                self.classes.append(_class_model(node))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        for statement in self.tree.body:
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
                constructor = is_lock_constructor(statement.value)
                if isinstance(target, ast.Name) and constructor is not None:
                    self.module_locks[target.id] = LockAttribute(
                        target.id, constructor, statement.lineno
                    )

    def resolved_call(self, name: str | None) -> str | None:
        """Expand the first segment of a dotted name through imports.

        ``sleep`` becomes ``time.sleep`` under ``from time import
        sleep``; already-qualified names pass through unchanged.
        """
        if name is None:
            return None
        head, _, rest = name.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return name
        return f"{origin}.{rest}" if rest else origin

    # ----------------------------------------------------------------- #
    # Spans and suppressions                                              #
    # ----------------------------------------------------------------- #

    def span(self, node: ast.AST) -> Span | None:
        """A :class:`Span` covering *node*, when it carries positions."""
        lineno = getattr(node, "lineno", None)
        col = getattr(node, "col_offset", None)
        if lineno is None or col is None:
            return None
        offsets = self._offsets()
        if lineno > len(offsets):
            return None
        start = offsets[lineno - 1] + col
        end_lineno = getattr(node, "end_lineno", None) or lineno
        end_col = getattr(node, "end_col_offset", None)
        if end_col is None or end_lineno > len(offsets):
            end = start + 1
        else:
            end = offsets[end_lineno - 1] + end_col
        return self._lines().span(start, max(end, start + 1))

    def span_at_line(self, lineno: int) -> Span | None:
        """A span covering all of source line *lineno* (1-based)."""
        offsets = self._offsets()
        if not 1 <= lineno <= len(offsets) - 1:
            return None
        start = offsets[lineno - 1]
        end = offsets[lineno]
        while end > start and self.text[end - 1] in "\r\n":
            end -= 1
        return self._lines().span(start, max(end, start + 1))

    def _lines(self) -> LineIndex:
        """Offset -> line/column, built once per file."""
        if self._line_index is None:
            self._line_index = LineIndex(self.text)
        return self._line_index

    def _offsets(self) -> list[int]:
        """Start offset of each ``splitlines`` line (lineno -> offset)."""
        if self._line_offsets is None:
            offsets = [0]
            for line in self.text.splitlines(keepends=True):
                offsets.append(offsets[-1] + len(line))
            self._line_offsets = offsets
        return self._line_offsets

    def suppressed(self, code: str, lineno: int | None) -> bool:
        """True iff *code* is suppressed on *lineno* (or the line above).

        A suppression is ``# audit: ok[RL3xx] <justification>``; the
        justification is mandatory -- a bare ``ok[...]`` marker does
        not suppress anything (see :meth:`bare_suppressions`).
        """
        if lineno is None:
            return False
        table = self._suppression_table()
        for candidate in (lineno, lineno - 1):
            entry = table.get(candidate)
            if entry is not None and entry[1] and code in entry[0]:
                return True
        return False

    def bare_suppressions(self) -> tuple[int, ...]:
        """Lines carrying a suppression marker without a justification."""
        return tuple(
            sorted(
                line
                for line, (_codes, justified) in self._suppression_table().items()
                if not justified
            )
        )

    def _suppression_table(self) -> dict[int, tuple[frozenset[str], bool]]:
        if self._suppressions is None:
            table: dict[int, tuple[frozenset[str], bool]] = {}
            for index, line in enumerate(self.text.splitlines(), start=1):
                match = _SUPPRESSION.search(line)
                if match is None:
                    continue
                codes = frozenset(
                    code.strip() for code in match.group("codes").split(",")
                )
                justified = bool(match.group("reason"))
                table[index] = (codes, justified)
            self._suppressions = table
        return self._suppressions


def _class_model(node: ast.ClassDef) -> ClassModel:
    model = ClassModel(name=node.name, node=node)
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[statement.name] = statement
        elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            constructor = is_lock_constructor(statement.value)
            if isinstance(target, ast.Name) and constructor is not None:
                model.locks[target.id] = LockAttribute(
                    target.id, constructor, statement.lineno
                )
    # self.<attr> = threading.Lock() anywhere inside a method body.
    for method in model.methods.values():
        for inner in ast.walk(method):
            if not isinstance(inner, ast.Assign) or len(inner.targets) != 1:
                continue
            target = inner.targets[0]
            constructor = is_lock_constructor(inner.value)
            if (
                constructor is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                model.locks[target.attr] = LockAttribute(
                    target.attr, constructor, inner.lineno
                )
    return model


def load_audit_file(path: str | Path) -> AuditFile:
    """Read and parse one source file (OSError propagates to the CLI)."""
    text = Path(path).read_text()
    return AuditFile(str(path), text)


def iter_python_files(paths: list[str]) -> list[Path]:
    """Expand CLI paths to a sorted list of ``.py`` files.

    Directories are walked recursively; ``__pycache__`` trees are
    skipped.  Missing paths raise :class:`FileNotFoundError` (mapped
    to exit 2 by the CLI).
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"cannot read {raw}: no such file")
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique
