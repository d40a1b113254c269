"""RPR007: ctypes/cffi loads in the core go through the fallback helper.

``backend="native"`` rests on one load-bearing promise: a missing
toolchain, a truncated build cache, or an ABI mismatch degrades to the
csr kernels with a :class:`~repro.core.native.NativeFallbackWarning`
— it never crashes a run.  That promise holds only if every shared
-object load is dominated by the handler that maps loader failures to
``None``.  The sanctioned spelling is
:func:`repro.core.native._load_shared_library`; a bare
``ctypes.CDLL(path)`` sprinkled elsewhere in the core turns an
environmental problem into an unhandled ``OSError`` deep inside a
matcher run.

The rule flags, anywhere under ``repro/core``:

- calls to the ctypes loader constructors — ``CDLL``, ``PyDLL``,
  ``WinDLL``, ``OleDLL``, ``LoadLibrary`` (the ``cdll.LoadLibrary``
  spelling), and ``cffi``'s ``dlopen`` — **unless** the call sits
  inside a function named ``_load_shared_library`` whose enclosing
  ``try`` handles ``OSError`` (the sanctioned boundary);
- any ``import cffi`` / ``from cffi import ...`` in the core: the
  project's binding layer is ctypes (stdlib); cffi is not a baked-in
  dependency, so importing it would add exactly the kind of hard
  requirement the native backend was designed to avoid.

Scope: ``repro/core`` only — the fallback contract is a core-execution
invariant; scripts and benchmarks may load libraries however they like.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import (
    FileRule,
    Finding,
    Severity,
    SourceFile,
    module_parts,
    parent_map,
    register_rule,
)

#: Loader callables whose failure modes (missing file, bad ELF, missing
#: symbol) are environmental, not programming errors.
_LOADER_NAMES = frozenset(
    {"CDLL", "PyDLL", "WinDLL", "OleDLL", "LoadLibrary", "dlopen"}
)

#: The one function allowed to contain a raw loader call.
_SANCTIONED_WRAPPER = "_load_shared_library"


def _called_name(call: ast.Call) -> str | None:
    """The terminal name of the called expression, if any.

    ``CDLL(p)`` -> ``CDLL``; ``ctypes.CDLL(p)`` -> ``CDLL``;
    ``ctypes.cdll.LoadLibrary(p)`` -> ``LoadLibrary``.
    """
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register_rule
class NativeBoundaryRule(FileRule):
    """RPR007 — see the module docstring for the full contract."""

    id = "RPR007"
    title = (
        "shared-library loads in repro/core must go through the "
        "_load_shared_library fallback helper"
    )
    severity = Severity.ERROR
    hint = (
        "call repro.core.native._load_shared_library(path) instead of "
        "loading directly; it maps loader failures to None so the "
        "caller degrades to the csr kernels"
    )

    def applies_to(self, path: str) -> bool:
        parts = module_parts(path)
        return (
            len(parts) >= 2 and parts[0] == "repro" and parts[1] == "core"
        )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        parents = parent_map(src.tree)
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(src, node)
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name not in _LOADER_NAMES:
                continue
            if self._inside_sanctioned_wrapper(node, parents):
                continue
            yield self.finding(
                src,
                node,
                f"bare shared-library load ({name}) outside the "
                f"sanctioned {_SANCTIONED_WRAPPER} boundary; a loader "
                "failure here crashes the run instead of falling back "
                "to the csr kernels",
            )

    def _check_import(
        self, src: SourceFile, node: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            names = [root]
        else:
            names = [alias.name.split(".")[0] for alias in node.names]
        if "cffi" in names:
            yield self.finding(
                src,
                node,
                "cffi import in repro/core: the native backend binds "
                "through stdlib ctypes only, so cffi would become a "
                "hard dependency the fallback ladder cannot gate",
            )

    def _inside_sanctioned_wrapper(
        self, call: ast.Call, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        """Inside ``_load_shared_library`` AND handled for ``OSError``."""
        node: ast.AST = call
        handled = False
        while True:
            parent = parents.get(node)
            if parent is None:
                return False
            if isinstance(parent, ast.Try) and self._in_body(parent, node):
                if any(
                    self._handles_oserror(handler)
                    for handler in parent.handlers
                ):
                    handled = True
            if isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return handled and parent.name == _SANCTIONED_WRAPPER
            node = parent

    @staticmethod
    def _in_body(try_node: ast.Try, target: ast.AST) -> bool:
        return any(
            stmt is target or any(n is target for n in ast.walk(stmt))
            for stmt in try_node.body
        )

    @staticmethod
    def _handles_oserror(handler: ast.ExceptHandler) -> bool:
        """Whether the handler catches ``OSError`` (or broader)."""
        if handler.type is None:
            return True
        names: list[str] = []
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for t in types:
            if isinstance(t, ast.Name):
                names.append(t.id)
            elif isinstance(t, ast.Attribute):
                names.append(t.attr)
        return bool(
            {"OSError", "IOError", "EnvironmentError", "Exception"}
            & set(names)
        )
