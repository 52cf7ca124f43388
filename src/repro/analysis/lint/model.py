"""Per-module facts shared by every lint rule (pass 1 of 3).

A :class:`ModuleModel` bundles what one rule pass needs to answer its
questions without re-walking the file:

* the parsed tree plus a **parent map**, so any rule can ask for a
  node's ancestors (loop depth, enclosing function, enclosing class);
* the **symbol table** (:mod:`.symbols`) with import/alias resolution
  and scope tracking;
* **suppression markers** extracted from genuine ``COMMENT`` tokens
  (``# lint: <marker>``) — tokenizing instead of substring-scanning
  means a marker *mentioned in a docstring* neither suppresses nor
  counts as stale for REP012;
* path predicates (``in_packages``, ``is_module``) shared by the
  scoped rules.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from .symbols import Scope, SymbolTable

__all__ = ["MarkerOccurrence", "ModuleModel"]

#: ``# lint: <marker>`` — anything after the marker word is free-text
#: justification (required by convention, not parsed).
_MARKER_RE = re.compile(r"#\s*lint:\s*([A-Za-z0-9][A-Za-z0-9_-]*)")

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPE_NODES = _FUNCTION_NODES + (ast.ClassDef, ast.ListComp, ast.SetComp,
                                  ast.DictComp, ast.GeneratorExp, ast.Module)


@dataclass(frozen=True)
class MarkerOccurrence:
    """One ``# lint: <name>`` comment in the module."""

    line: int
    name: str


class ModuleModel:
    """Everything the rule passes know about one module."""

    def __init__(self, source: str, path: str = "<string>") -> None:
        self.path = Path(path)
        self.display_path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.symbols = SymbolTable(self.tree)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.markers: List[MarkerOccurrence] = _extract_markers(source)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestors, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing function/lambda node, or None."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, _FUNCTION_NODES):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        """The nearest enclosing class, or None (stops at functions
        so a class nested inside a method does not leak outward)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def scope_of(self, node: ast.AST) -> Scope:
        """The lexical scope the node's code runs in."""
        current: Optional[ast.AST] = node
        while current is not None:
            scope = self.symbols.scopes.get(current)
            if scope is not None and isinstance(current, _SCOPE_NODES):
                # The scope-owner node itself (e.g. a FunctionDef used
                # as a statement) lives in its *parent* scope; its body
                # lives in its own.  Callers pass body nodes, so owner
                # hits only happen for the module node.
                if current is node and not isinstance(current, ast.Module):
                    current = self.parents.get(current)
                    continue
                return scope
            current = self.parents.get(current)
        return self.symbols.module_scope

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """The call target as a dotted name, through the symbol table."""
        return self.symbols.resolve(node.func, self.scope_of(node))

    def calls(self) -> Iterator[ast.Call]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node

    # ------------------------------------------------------------------
    # Path predicates
    # ------------------------------------------------------------------

    def in_packages(self, packages: Sequence[str],
                    require_repro: bool = False) -> bool:
        """True when the module lies inside one of the named packages
        (by path component; ``require_repro`` additionally demands a
        ``repro`` component, excluding same-named test directories)."""
        parts = self.path.parts
        if require_repro and "repro" not in parts:
            return False
        return any(package in parts for package in packages)

    def is_module(self, package: str, filename: str) -> bool:
        """True for exactly ``.../<package>/<filename>``."""
        parts = self.path.parts
        return (len(parts) >= 2 and parts[-1] == filename
                and parts[-2] == package)

    # ------------------------------------------------------------------
    # Identifier-token scan (REP008's guard detection)
    # ------------------------------------------------------------------

    def identifier_tokens(self, root: ast.AST) -> Iterator[str]:
        """Every identifier spelled inside ``root`` (names, attribute
        components, parameters) — docstrings and comments excluded."""
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.arg):
                yield node.arg


def _extract_markers(source: str) -> List[MarkerOccurrence]:
    """``# lint: <name>`` occurrences from real comment tokens."""
    occurrences: List[MarkerOccurrence] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _MARKER_RE.search(token.string)
            if match is not None:
                occurrences.append(
                    MarkerOccurrence(token.start[0], match.group(1)))
    except (tokenize.TokenError, IndentationError,
            SyntaxError):  # pragma: no cover - ast.parse catches first
        for number, line in enumerate(source.splitlines(), start=1):
            match = _MARKER_RE.search(line)
            if match is not None:
                occurrences.append(MarkerOccurrence(number, match.group(1)))
    return occurrences
