"""AST node model.

Queries are represented the way Section 4.1 of the paper describes: each
node has a *type* (``SelectStmt``, ``ProjClause``, ``BiExpr``, ...), a set of
attribute/value pairs (``op: '='``), and an ordered list of children.

Nodes are treated as immutable once built: all "mutation" helpers
(:meth:`Node.replace_at`, :meth:`Node.delete_at`, :meth:`Node.insert_at`)
return new trees that share unmodified subtrees with the original.  This
makes structural fingerprints safe to cache, which is the property the
diffing and closure machinery lean on for speed.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.errors import PathError
from repro.paths import Path

__all__ = ["Node", "MISSING_LITERAL"]


class _MissingLiteral:
    """Sentinel for a literal leaf whose value attribute is absent.

    Distinct from every real value (including ``None``), so the
    :class:`~repro.treediff.memo.DiffMemo` literal pattern never conflates
    "no value attribute" with "value is None" — the two are unequal nodes.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing literal>"


#: See :class:`_MissingLiteral`.
MISSING_LITERAL = _MissingLiteral()

#: Attributes that spell a literal's value, abstracted by the skeleton
#: with it: a hex literal's ``text`` (``0x1`` and ``0x01`` spell one value).
_SPELLINGS = {"HexExpr": "text"}


def _literal_entry(node: "Node", value_attributes: Mapping[str, str]) -> object:
    """A bare literal leaf's entry in :attr:`Node.literal_values`.

    The leaf's value attribute (named by ``value_attributes``, default
    ``value``), or :data:`MISSING_LITERAL` when absent; ``(value,
    spelling)`` for a literal type listed in :data:`_SPELLINGS`.  The
    parser's template cache builds its literal vectors with this too.
    """
    value = node.attributes.get(
        value_attributes.get(node.node_type, "value"), MISSING_LITERAL
    )
    spelling = _SPELLINGS.get(node.node_type)
    if spelling is None:
        return value
    return value, node.attributes.get(spelling, MISSING_LITERAL)


class Node:
    """One AST node.

    Args:
        node_type: grammar symbol, e.g. ``"BiExpr"``.
        attributes: attribute/value pairs; values must be hashable.
        children: ordered child nodes.
    """

    __slots__ = (
        "node_type",
        "attributes",
        "children",
        "_fingerprint",
        "_size",
        "_skeleton",
        "_literals",
    )

    def __init__(
        self,
        node_type: str,
        attributes: Mapping[str, object] | None = None,
        children: Sequence["Node"] | None = None,
    ):
        self.node_type = node_type
        self.attributes: dict[str, object] = dict(attributes or {})
        self.children: tuple[Node, ...] = tuple(children or ())
        self._fingerprint: int | None = None
        self._size: int | None = None
        self._skeleton: int | None = None
        self._literals: tuple | None = None

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle without the cached fingerprint/size.

        ``fingerprint`` is built on ``hash()``, whose string salt differs
        per process; shipping the cache across a process boundary (the
        sharded ``generate_many`` workers) would poison ``equals``/``__hash__``
        in the receiving process.  Both caches rebuild lazily on demand.
        """
        return (self.node_type, self.attributes, self.children)

    def __setstate__(self, state) -> None:
        self.node_type, self.attributes, self.children = state
        self._fingerprint = None
        self._size = None
        self._skeleton = None
        self._literals = None

    # ------------------------------------------------------------------
    # structural identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> int:
        """A structural hash: equal for structurally equal subtrees."""
        if self._fingerprint is None:
            attr_items = tuple(sorted(self.attributes.items()))
            child_prints = tuple(c.fingerprint for c in self.children)
            self._fingerprint = hash((self.node_type, attr_items, child_prints))
        return self._fingerprint

    @property
    def skeleton(self) -> int:
        """A literal-normalised structural hash — the subtree's *template
        shape*.

        Two subtrees share a skeleton when they have the same structure,
        node types, and operator heads but may differ in literal *values*:
        a bare literal leaf (``NumExpr(5)``, ``ColExpr(sales)``, ...)
        contributes only its node type and its ``classify_change`` kind,
        with the value attribute abstracted away — and, for a hex
        literal, the ``text`` that spells the value.  Template-repetitive
        logs — thousands of queries differing only in literals — collapse
        to a handful of skeletons, which is what the
        :class:`~repro.treediff.memo.DiffMemo` keys its alignment plans
        on.

        Like :attr:`fingerprint`, the hash is computed bottom-up, cached,
        and process-salted (never persist the raw value).  The literal
        classification is the default SQL grammar's
        (:data:`~repro.sqlparser.grammar.SQL_ANNOTATIONS`); consumers
        running custom annotations must not key on skeletons.
        """
        if self._skeleton is None:
            # deferred import: grammar imports this module at load time
            from repro.sqlparser.grammar import SQL_ANNOTATIONS

            kind = None if self.children else SQL_ANNOTATIONS.literal_types.get(
                self.node_type
            )
            if kind is not None:
                abstracted = (
                    SQL_ANNOTATIONS.value_attributes.get(self.node_type, "value"),
                    _SPELLINGS.get(self.node_type),
                )
                attr_items = tuple(
                    sorted(
                        item
                        for item in self.attributes.items()
                        if item[0] not in abstracted
                    )
                )
                self._skeleton = hash(("$lit", self.node_type, attr_items, kind))
            else:
                attr_items = tuple(sorted(self.attributes.items()))
                child_skeletons = tuple(c.skeleton for c in self.children)
                self._skeleton = hash((self.node_type, attr_items, child_skeletons))
        return self._skeleton

    @property
    def literal_values(self) -> tuple:
        """The values this subtree's skeleton abstracted, in preorder.

        One entry per bare literal leaf: the leaf's value attribute (or
        :data:`MISSING_LITERAL` when the attribute is absent, so a leaf
        lacking its value never pattern-matches one carrying ``None``).
        A hex literal's entry is ``(value, text)``: ``0x1`` and ``0x01``
        have equal values but are unequal nodes.  Together with
        :attr:`skeleton` this is a lossless split of the subtree for diff
        purposes: skeleton + literal values determine every equality the
        tree aligner can observe.
        """
        if self._literals is None:
            from repro.sqlparser.grammar import SQL_ANNOTATIONS

            self._literals = tuple(
                _literal_entry(node, SQL_ANNOTATIONS.value_attributes)
                for node in self.preorder()
                if not node.children and node.node_type in SQL_ANNOTATIONS.literal_types
            )
        return self._literals

    def reshaped(
        self, children: tuple["Node", ...], literals: tuple | None = None
    ) -> "Node":
        """This node over other children of the same shape.

        The caller guarantees that ``children`` differ from this node's
        only in values its :attr:`skeleton` abstracts, so the new node
        shares this node's attributes and carries its skeleton and size
        instead of recomputing them, and ``literals`` (when given) as its
        :attr:`literal_values`.  The parser's template cache builds ASTs
        this way (see :mod:`repro.sqlparser.parser`).
        """
        node = Node.__new__(Node)
        node.node_type = self.node_type
        node.attributes = self.attributes
        node.children = children
        node._fingerprint = None
        node._size = self._size
        node._skeleton = self._skeleton
        node._literals = literals
        return node

    def equals(self, other: "Node") -> bool:
        """Deep structural equality."""
        if self is other:
            return True
        if (
            self.fingerprint != other.fingerprint
            or self.node_type != other.node_type
            or self.attributes != other.attributes
            or len(self.children) != len(other.children)
        ):
            return False
        return all(a.equals(b) for a, b in zip(self.children, other.children))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:
        return self.fingerprint

    # ------------------------------------------------------------------
    # shape metrics
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes in this subtree."""
        if self._size is None:
            self._size = 1 + sum(c.size for c in self.children)
        return self._size

    @property
    def depth(self) -> int:
        """Height of this subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(c.depth for c in self.children)

    @property
    def n_leaves(self) -> int:
        """Number of leaves in this subtree."""
        if not self.children:
            return 1
        return sum(c.n_leaves for c in self.children)

    def is_leaf(self) -> bool:
        return not self.children

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def preorder(self) -> Iterator["Node"]:
        """Yield nodes in preorder (self first)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_with_paths(self, prefix: Path | None = None) -> Iterator[tuple[Path, "Node"]]:
        """Yield ``(path, node)`` pairs in preorder; the root has the empty
        path (or ``prefix`` when given)."""
        root_path = prefix if prefix is not None else Path.root()
        stack: list[tuple[Path, Node]] = [(root_path, self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for index in range(len(node.children) - 1, -1, -1):
                stack.append((path.child(index), node.children[index]))

    # ------------------------------------------------------------------
    # path addressing
    # ------------------------------------------------------------------
    def get(self, path: Path) -> "Node":
        """Return the node addressed by ``path`` (root for the empty path).

        Raises:
            PathError: when the path walks off the tree.
        """
        node = self
        for step in path.steps:
            if step >= len(node.children):
                raise PathError(f"path {path} does not resolve in {self.node_type} tree")
            node = node.children[step]
        return node

    def has_path(self, path: Path) -> bool:
        """True when ``path`` resolves inside this tree."""
        node = self
        for step in path.steps:
            if step >= len(node.children):
                return False
            node = node.children[step]
        return True

    def replace_at(self, path: Path, subtree: "Node") -> "Node":
        """Return a new tree with the node at ``path`` replaced by ``subtree``."""
        if path.is_root():
            return subtree
        return self._rebuild(path.steps, lambda _old: subtree)

    def delete_at(self, path: Path) -> "Node":
        """Return a new tree with the node at ``path`` removed from its parent.

        Raises:
            PathError: when asked to delete the root or a missing node.
        """
        if path.is_root():
            raise PathError("cannot delete the root node")
        parent_steps, index = path.steps[:-1], path.steps[-1]

        def edit_parent(parent: Node) -> Node:
            if index >= len(parent.children):
                raise PathError(f"no child {index} to delete at {path}")
            kids = parent.children[:index] + parent.children[index + 1:]
            return Node(parent.node_type, parent.attributes, kids)

        if not parent_steps:
            return edit_parent(self)
        return self._rebuild(parent_steps, edit_parent)

    def insert_at(self, parent_path: Path, index: int, subtree: "Node") -> "Node":
        """Return a new tree with ``subtree`` inserted as child ``index`` of
        the node at ``parent_path``.  ``index`` may equal the child count
        (append)."""

        def edit_parent(parent: Node) -> Node:
            if index > len(parent.children):
                raise PathError(
                    f"insert index {index} out of range at {parent_path}"
                )
            kids = parent.children[:index] + (subtree,) + parent.children[index:]
            return Node(parent.node_type, parent.attributes, kids)

        if parent_path.is_root():
            return edit_parent(self)
        return self._rebuild(parent_path.steps, edit_parent)

    def _rebuild(self, steps: tuple[int, ...], edit) -> "Node":
        """Rebuild the spine down ``steps`` and apply ``edit`` to the target."""
        if not steps:
            return edit(self)
        head, rest = steps[0], steps[1:]
        if head >= len(self.children):
            raise PathError(f"path step {head} out of range in {self.node_type}")
        new_child = self.children[head]._rebuild(rest, edit)
        kids = self.children[:head] + (new_child,) + self.children[head + 1:]
        return Node(self.node_type, self.attributes, kids)

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def label(self) -> str:
        """Short human-readable label, e.g. ``BiExpr(op==)``."""
        if self.attributes:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.attributes.items()))
            return f"{self.node_type}({inner})"
        return self.node_type

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the subtree."""
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node<{self.label()}, {len(self.children)} children>"
