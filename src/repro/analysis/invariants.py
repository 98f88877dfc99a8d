"""The shipped rules — each encodes one repo invariant.

===== ======================== ======================================
id    name                     invariant
===== ======================== ======================================
RL001 lock-discipline          store mutations run under ``StoreLock``
RL002 salted-hash-hygiene      salted hashes are never serialized
RL003 frozen-result-immutable  result objects are never mutated
RL005 stage-purity             ``Stage.run`` returns state, mutates
                               nothing module-level
RL006 compiled-artifact-       compiled-page payloads never embed
      hygiene                  salted node hashes
===== ======================== ======================================

RL004 (proof-polarity) guarded the export of closure proofs; it was
retired with the store's proof table, and its id is not reused.

The rules are deliberately *lexical*: they reason about one file at a
time with no cross-module inference, trading recall for zero false
"cannot analyse" noise.  Where a rule needs vocabulary (class names,
sink names), it reads :class:`~repro.analysis.config.LintConfig` so
coverage can grow from ``pyproject.toml``.
"""

from __future__ import annotations

import ast

from repro.analysis.context import ModuleContext, dotted_name, walk_in_scope
from repro.analysis.rules import Rule, register

__all__ = [
    "LockDiscipline",
    "SaltedHashHygiene",
    "FrozenResultImmutability",
    "StagePurity",
    "CompiledArtifactHygiene",
]

#: method names that mutate their receiver in place (RL005)
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)


def _callee_name(call: ast.Call) -> str | None:
    """The simple (rightmost) name of a call target."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _root_name(node: ast.AST) -> str | None:
    """The leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _identifiers(node: ast.AST) -> set[str]:
    """Every Name id and Attribute attr mentioned in a subtree."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


@register
class LockDiscipline(Rule):
    """RL001: persistence mutations in store modules happen inside
    ``with <lock>.held()``.

    The :class:`~repro.cache.store.GraphStore` serialises multi-file
    operations (prune, invalidate, derived-table saves) through an
    advisory :class:`~repro.cache.lock.StoreLock`; a mutation outside
    the lock can interleave with another process and leave the four
    tables mutually inconsistent.  Deliberately lock-free sites (the
    single-file atomic graph save) carry a justified inline suppression.
    """

    id = "RL001"
    name = "lock-discipline"
    description = (
        "store-owned writes/replaces/unlinks must be lexically inside "
        "'with ...lock.held()'"
    )

    def start_module(self, ctx: ModuleContext) -> None:
        self._active = ctx.path_matches(ctx.config.store_modules)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if not self._active or not isinstance(node, ast.Call):
            return
        name = _callee_name(node)
        if name not in ctx.config.store_mutating_calls:
            return
        if not ctx.in_lock_block():
            ctx.report(
                self,
                node,
                f"store mutation '{name}(...)' outside 'with ...lock.held()'",
            )


@register
class SaltedHashHygiene(Rule):
    """RL002: ``Node.fingerprint``/``Node.skeleton`` never reach a
    serialization sink.

    Both hashes build on ``hash()``, whose string salt differs per
    process; a persisted value silently poisons every cross-process
    cache lookup that compares against it.  The rule flags salted
    attribute reads — and names assigned from them — appearing in
    ``json.dump``/``json.dumps`` arguments, in ``__getstate__`` return
    values, or in the return values of ``*_to_dict`` codec functions.
    """

    id = "RL002"
    name = "salted-hash-hygiene"
    description = (
        "process-salted fingerprint/skeleton values must not flow into "
        "json.dump/serialize payloads or __getstate__ results"
    )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.Module):
            self._check_scope(node, ctx, returns_are_sinks=False)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            salted_returns = node.name == "__getstate__" or node.name.endswith(
                "_to_dict"
            )
            self._check_scope(node, ctx, returns_are_sinks=salted_returns)

    def _check_scope(
        self,
        scope: ast.AST,
        ctx: ModuleContext,
        returns_are_sinks: bool,
    ) -> None:
        tainted = self._tainted_names(scope, ctx)
        for node in walk_in_scope(scope):
            if isinstance(node, ast.Call) and self._is_serialize_sink(node, ctx):
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    self._flag_salted(arg, tainted, ctx, "a serialization call")
            elif returns_are_sinks and isinstance(node, ast.Return):
                if node.value is not None:
                    self._flag_salted(
                        node.value, tainted, ctx, "a serialized return value"
                    )

    def _tainted_names(self, scope: ast.AST, ctx: ModuleContext) -> set[str]:
        """Names bound (in this scope) from a salted attribute read."""
        tainted: set[str] = set()
        salted = set(ctx.config.salted_attributes)
        for node in walk_in_scope(scope):
            value: ast.AST | None = None
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.NamedExpr):
                value, targets = node.value, [node.target]
            if value is None:
                continue
            if any(
                isinstance(sub, ast.Attribute) and sub.attr in salted
                for sub in ast.walk(value)
            ):
                for target in targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    def _is_serialize_sink(self, call: ast.Call, ctx: ModuleContext) -> bool:
        name = dotted_name(call)
        if name is None:
            return False
        return any(
            name == sink or name.endswith("." + sink)
            for sink in ctx.config.serialize_sinks
        )

    def _flag_salted(
        self,
        expr: ast.AST,
        tainted: set[str],
        ctx: ModuleContext,
        where: str,
    ) -> None:
        salted = set(ctx.config.salted_attributes)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Attribute) and sub.attr in salted:
                ctx.report(
                    self,
                    sub,
                    f"process-salted '.{sub.attr}' value flows into {where}",
                )
            elif isinstance(sub, ast.Name) and sub.id in tainted:
                ctx.report(
                    self,
                    sub,
                    f"'{sub.id}' (bound from a salted hash) flows into {where}",
                )


@register
class FrozenResultImmutability(Rule):
    """RL003: no attribute assignment on frozen result instances.

    ``GenerationResult``/``PipelineRun``/``StageReport`` are frozen
    dataclasses; the blessed escape hatch ``object.__setattr__`` is
    allowed only on ``self`` inside the class's own constructors
    (``__init__``/``__new__``/``__post_init__``/``__setstate__``).
    Plain attribute stores on names bound to (or annotated as) a result
    instance are flagged wherever they appear.
    """

    id = "RL003"
    name = "frozen-result-immutable"
    description = (
        "no attribute assignment on GenerationResult/PipelineRun/"
        "StageReport instances outside their own constructors"
    )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.Call):
            self._check_setattr(node, ctx)
        elif isinstance(node, ast.Module):
            self._check_scope(node, ctx)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_scope(node, ctx)

    def _check_setattr(self, call: ast.Call, ctx: ModuleContext) -> None:
        if dotted_name(call) != "object.__setattr__" or not call.args:
            return
        target = call.args[0]
        function = ctx.current_function
        allowed = (
            isinstance(target, ast.Name)
            and target.id == "self"
            and ctx.current_class is not None
            and function is not None
            and function.name in ctx.config.frozen_allowed_methods
        )
        if not allowed:
            ctx.report(
                self,
                call,
                "object.__setattr__ outside a constructor defeats frozen "
                "result immutability",
            )

    def _check_scope(self, scope: ast.AST, ctx: ModuleContext) -> None:
        frozen = set(ctx.config.frozen_classes)
        bound: set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in [
                *scope.args.posonlyargs,
                *scope.args.args,
                *scope.args.kwonlyargs,
            ]:
                if arg.annotation is not None and self._mentions_frozen(
                    arg.annotation, frozen
                ):
                    bound.add(arg.arg)
        for node in walk_in_scope(scope):
            value: ast.AST | None = None
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                if self._mentions_frozen(node.annotation, frozen) and isinstance(
                    node.target, ast.Name
                ):
                    bound.add(node.target.id)
                value, targets = node.value, [node.target]
            if (
                value is not None
                and isinstance(value, ast.Call)
                and _callee_name(value) in frozen
            ):
                for target in targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
        if not bound:
            return
        for node in walk_in_scope(scope):
            targets = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in bound
                ):
                    ctx.report(
                        self,
                        target,
                        f"attribute assignment on frozen result instance "
                        f"'{target.value.id}'",
                    )

    @staticmethod
    def _mentions_frozen(annotation: ast.AST, frozen: set[str]) -> bool:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Name) and sub.id in frozen:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in frozen:
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if any(name in sub.value for name in frozen):
                    return True
        return False


@register
class StagePurity(Rule):
    """RL005: ``Stage.run`` returns a state and mutates nothing global.

    The pipeline replays, shards and resumes stages; a stage that
    returns ``None`` breaks the ``run(state) -> state`` chain, and one
    that rebinds or mutates module-level bindings carries hidden state
    across runs and across pool workers.  A body whose last statement
    ``raise``\\ s (the abstract base) is exempt from the return check.
    """

    id = "RL005"
    name = "stage-purity"
    description = (
        "Stage.run implementations must return a state and not rebind "
        "module-level mutables"
    )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if not isinstance(node, ast.ClassDef):
            return
        if not self._is_stage(node, ctx):
            return
        for stmt in node.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "run"
            ):
                self._check_run(stmt, node.name, ctx)

    def _is_stage(self, node: ast.ClassDef, ctx: ModuleContext) -> bool:
        bases = set(ctx.config.stage_bases)
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in bases:
                return True
            if isinstance(base, ast.Attribute) and base.attr in bases:
                return True
        return False

    def _check_run(
        self,
        run: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str,
        ctx: ModuleContext,
    ) -> None:
        returns_value = False
        for node in walk_in_scope(run):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                ctx.report(
                    self,
                    node,
                    "Stage.run must not rebind enclosing-scope names",
                )
            elif isinstance(node, ast.Return):
                if node.value is None:
                    ctx.report(
                        self, node, "bare return in Stage.run; return the state"
                    )
                else:
                    returns_value = True
            else:
                self._check_module_mutation(node, ctx)
        body_ends_in_raise = bool(run.body) and isinstance(run.body[-1], ast.Raise)
        if not returns_value and not body_ends_in_raise:
            ctx.report(
                self,
                run,
                f"Stage.run in '{class_name}' never returns a state",
            )

    def _check_module_mutation(self, node: ast.AST, ctx: ModuleContext) -> None:
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root = _root_name(target)
                if root is not None and root in ctx.module_names:
                    ctx.report(
                        self,
                        target,
                        f"Stage.run mutates module-level binding '{root}'",
                    )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            root = _root_name(node.func.value)
            if root is not None and root in ctx.module_names:
                ctx.report(
                    self,
                    node,
                    f"Stage.run mutates module-level binding '{root}' "
                    f"via .{node.func.attr}()",
                )


@register
class CompiledArtifactHygiene(Rule):
    """RL006: compiled-artifact payloads never embed salted node hashes.

    RL002's invariant applied to the incremental compiler: the page
    states and patches built in ``repro/compiler/`` are streamed to
    remote subscribers, so a ``Node.fingerprint``/``skeleton`` value
    embedded in one means nothing in the process that folds it.  RL002
    watches ``json.dump`` and ``*_to_dict``; the compiler's payloads are
    built by ``to_state``/``make_patch``/``apply_patch`` (and any
    ``*_to_state``), which this rule treats as sinks.

    The compiler legitimately names its *stable* content digests
    ``fingerprint`` (``CompiledPage.fingerprint`` is a sha256 prefix), so
    a bare attribute-name match would drown in false positives.  The rule
    instead flags salted reads whose receiver chain mentions a parsed-AST
    identifier (``query.fingerprint``, ``node.skeleton``,
    ``interface.initial_query.fingerprint``, ...) — the
    ``node_identifiers`` vocabulary — plus names bound from such reads.
    Identifiers match case-insensitively, ignoring leading underscores:
    vocabulary entries of four characters or fewer must equal the
    identifier, longer ones may occur anywhere in it.  In-memory uses
    (proof keys, memo lookups) outside the builder returns stay clean.
    """

    id = "RL006"
    name = "compiled-artifact-hygiene"
    description = (
        "salted Node fingerprint/skeleton values must not flow into "
        "compiled-payload builders (to_state/make_patch/apply_patch)"
    )

    def start_module(self, ctx: ModuleContext) -> None:
        self._active = ctx.path_matches(ctx.config.compiled_modules)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if not self._active:
            return
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if not self._is_builder(node.name, ctx):
            return
        tainted = self._tainted_names(node, ctx)
        for sub in walk_in_scope(node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                self._flag(sub.value, tainted, ctx, node.name)

    @staticmethod
    def _is_builder(name: str, ctx: ModuleContext) -> bool:
        return name in ctx.config.compiled_payload_builders or name.endswith(
            "_to_state"
        )

    def _salted_node_reads(
        self, expr: ast.AST, ctx: ModuleContext
    ) -> list[ast.Attribute]:
        """Salted attribute reads whose receiver is a parsed-AST value."""
        salted = set(ctx.config.salted_attributes)
        return [
            sub
            for sub in ast.walk(expr)
            if isinstance(sub, ast.Attribute)
            and sub.attr in salted
            and self._node_receiver(sub.value, ctx)
        ]

    @staticmethod
    def _node_receiver(receiver: ast.AST, ctx: ModuleContext) -> bool:
        sources = ctx.config.node_identifiers
        for identifier in _identifiers(receiver):
            lowered = identifier.lower().lstrip("_")
            if any(
                lowered == source or (len(source) > 4 and source in lowered)
                for source in sources
            ):
                return True
        return False

    def _tainted_names(self, scope: ast.AST, ctx: ModuleContext) -> set[str]:
        """Names bound (in the builder body) from a salted node read."""
        tainted: set[str] = set()
        for node in walk_in_scope(scope):
            value: ast.AST | None = None
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.NamedExpr):
                value, targets = node.value, [node.target]
            if value is None or not self._salted_node_reads(value, ctx):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
        return tainted

    def _flag(
        self,
        expr: ast.AST,
        tainted: set[str],
        ctx: ModuleContext,
        builder: str,
    ) -> None:
        for read in self._salted_node_reads(expr, ctx):
            ctx.report(
                self,
                read,
                f"process-salted '.{read.attr}' of a query/node value "
                f"flows into compiled payload builder '{builder}'",
            )
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                ctx.report(
                    self,
                    sub,
                    f"'{sub.id}' (bound from a salted node hash) flows "
                    f"into compiled payload builder '{builder}'",
                )
