"""Hypothesis strategies for random-but-valid SQL ASTs.

The generators build ASTs bottom-up in the exact node vocabulary the
parser emits, so every generated tree should round-trip through
``render_sql`` / ``parse_sql`` unchanged — the core property the parser
substrate is tested on.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.sqlparser.astnodes import Node

_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    # exclude words the lexer treats as keywords
    lambda s: s.upper()
    not in {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
        "OFFSET", "TOP", "DISTINCT", "ALL", "AS", "AND", "OR", "NOT", "IN",
        "IS", "NULL", "LIKE", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE",
        "END", "CAST", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
        "CROSS", "ON", "UNION", "EXCEPT", "INTERSECT", "ASC", "DESC",
        "EXISTS", "TRUE", "FALSE",
    }
)

_NUM = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6).map(
        lambda v: Node("NumExpr", {"value": v})
    ),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    .map(lambda v: round(v, 3))
    .filter(lambda v: v == v and abs(v) < 1e6)
    .map(lambda v: Node("NumExpr", {"value": v})),
)

_STR = st.from_regex(r"[a-zA-Z0-9 _\-]{0,12}", fullmatch=True).map(
    lambda s: Node("StrExpr", {"value": s})
)

_COL = _IDENT.map(lambda name: Node("ColExpr", {"name": name}))

_LITERAL = st.one_of(_NUM, _STR, _COL)

_COMPARISON_OP = st.sampled_from(["=", "<>", "<", ">", "<=", ">="])
_ARITH_OP = st.sampled_from(["+", "-", "*", "/"])


def _bi(op_strategy):
    def build(children_strategy):
        return st.tuples(op_strategy, children_strategy, children_strategy).map(
            lambda t: Node("BiExpr", {"op": t[0]}, [t[1], t[2]])
        )

    return build


def scalar_exprs(max_depth: int = 3):
    """Arithmetic/comparison expression trees over literals and columns."""
    return st.recursive(
        _LITERAL,
        lambda inner: st.one_of(
            _bi(_ARITH_OP)(inner),
            st.tuples(_IDENT, st.lists(inner, min_size=1, max_size=3)).map(
                lambda t: Node(
                    "FuncExpr", {}, [Node("FuncName", {"name": t[0]})] + t[1]
                )
            ),
        ),
        max_leaves=6,
    )


def predicates():
    """WHERE-clause conjunct strategies."""
    simple = st.tuples(_COMPARISON_OP, _COL, st.one_of(_NUM, _STR)).map(
        lambda t: Node("BiExpr", {"op": t[0]}, [t[1], t[2]])
    )
    between = st.tuples(
        _COL,
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=101, max_value=1000),
    ).map(
        lambda t: Node(
            "BetweenExpr",
            {},
            [t[0], Node("NumExpr", {"value": t[1]}), Node("NumExpr", {"value": t[2]})],
        )
    )
    return st.one_of(simple, between)


# ----------------------------------------------------------------------
# AST paths (interval-index property suite)
# ----------------------------------------------------------------------
#
# Random-but-realistic path sets for the interval-encoding harness: AST
# paths are short tuples of small child indices, and real diff tables mix
# ancestors with their descendants constantly (every ancestor diff sits
# on a prefix of its leaf diffs' paths).  ``ast_paths`` biases towards
# that by extending previously drawn paths, so prefix chains — the case
# interval containment must get right — are common rather than
# vanishingly rare.

def ast_paths(max_depth: int = 5, max_branch: int = 4):
    """A single random AST path as a step tuple."""
    return st.lists(
        st.integers(min_value=0, max_value=max_branch),
        min_size=0,
        max_size=max_depth,
    ).map(tuple)


@st.composite
def path_sets(draw, min_size: int = 1, max_size: int = 12) -> list[tuple]:
    """A set of distinct paths rich in ancestor/descendant chains."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    paths: list[tuple] = []
    seen: set[tuple] = set()
    # bounded loop that *skips* duplicates rather than redrawing — an
    # unbounded retry loop stalls Hypothesis's entropy budget
    for _ in range(n):
        if paths and draw(st.booleans()):
            # extend an existing path so prefix chains actually occur
            base = paths[draw(st.integers(0, len(paths) - 1))]
            candidate = base + draw(ast_paths(max_depth=2))
        else:
            candidate = draw(ast_paths())
        if candidate not in seen:
            seen.add(candidate)
            paths.append(candidate)
    if not paths:
        paths.append(())
    return paths


@st.composite
def path_batches(draw, max_batches: int = 4) -> list[list[tuple]]:
    """An incremental arrival schedule: successive batches of paths
    (batches may re-touch already seen paths — the steady-state case)."""
    universe = draw(path_sets(min_size=1, max_size=10))
    n_batches = draw(st.integers(min_value=1, max_value=max_batches))
    batches = []
    for _ in range(n_batches):
        batch = draw(
            st.lists(st.sampled_from(universe), min_size=1, max_size=6)
        )
        batches.append(batch)
    return batches


# ----------------------------------------------------------------------
# session workloads (service-layer parity suite)
# ----------------------------------------------------------------------
#
# Real session logs are not arbitrary ASTs: they are *template traffic* —
# the same handful of query shapes re-issued with different literals and
# columns, which is exactly the structure interface mining exploits.
# ``session_workloads`` generates that: per client, a random mix of
# parametrised templates instantiated with random values, then split into
# random contiguous batches (the arrival pattern).  The parity suite runs
# each workload through one-shot ``generate``, ``InterfaceSession.stream``,
# and a ``SessionPool`` and requires identical widget sets and closure
# answers.

_TABLE = st.sampled_from(["t", "orders", "runs", "ontime"])


@st.composite
def template_statements(draw, min_size: int = 4, max_size: int = 10) -> list[str]:
    """A single client's log: template traffic over one table."""
    table = draw(_TABLE)
    shapes = draw(
        st.lists(
            st.sampled_from(["filter", "project", "group"]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    statements = []
    for _ in range(n):
        shape = draw(st.sampled_from(shapes))
        if shape == "filter":
            value = draw(st.integers(min_value=0, max_value=40))
            statements.append(f"SELECT a FROM {table} WHERE x = {value}")
        elif shape == "project":
            column = draw(st.sampled_from(["a", "b", "c"]))
            value = draw(st.integers(min_value=0, max_value=9))
            statements.append(
                f"SELECT {column}, d FROM {table} WHERE y = {value}"
            )
        else:
            agg = draw(st.sampled_from(["SUM", "AVG", "MIN"]))
            statements.append(
                f"SELECT g, {agg}(m) FROM {table} GROUP BY g"
            )
    return statements


@st.composite
def batch_splits(draw, statements: list[str]) -> list[list[str]]:
    """A random partition of a log into contiguous non-empty batches."""
    if len(statements) <= 1:
        return [list(statements)]
    cuts = draw(
        st.sets(
            st.integers(min_value=1, max_value=len(statements) - 1),
            max_size=len(statements) - 1,
        )
    )
    bounds = [0, *sorted(cuts), len(statements)]
    return [
        statements[start:stop]
        for start, stop in zip(bounds, bounds[1:])
        if stop > start
    ]


@st.composite
def session_workloads(draw, max_clients: int = 3):
    """A multi-client workload: ``{client_id: (statements, batches)}``.

    ``batches`` concatenates back to exactly ``statements`` — the
    invariant that makes one-shot/streamed/pooled runs comparable.
    """
    n_clients = draw(st.integers(min_value=1, max_value=max_clients))
    workload = {}
    for index in range(n_clients):
        statements = draw(template_statements())
        batches = draw(batch_splits(statements))
        workload[f"client-{index}"] = (statements, batches)
    return workload


#: Literals whose JSON spelling takes care: non-ASCII text, quotes and
#: backslashes, floats equal to ints (``5`` and ``5.0`` are structurally
#: equal nodes), a negative zero and booleans.
_AWKWARD_LITERALS = st.sampled_from(
    ["1", "5", "5.0", "2.5", "-0.5", "0.0", "-0.0", "'\u00e9t\u00e9'",
     "'it''s'", "'back\\slash \"q\"'", "'\u2603'", "TRUE", "FALSE"]
)


@st.composite
def awkward_statements(draw, min_size: int = 1, max_size: int = 6) -> list[str]:
    """Statements over one table whose literals are
    :data:`_AWKWARD_LITERALS`, with a boolean-valued ``IS [NOT] NULL``."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    statements = []
    for _ in range(n):
        literal = draw(_AWKWARD_LITERALS)
        test = draw(st.sampled_from(["IS NULL", "IS NOT NULL"]))
        statements.append(f"SELECT a FROM t WHERE x = {literal} AND y {test}")
    return statements


@st.composite
def select_statements(draw) -> Node:
    """A random SELECT AST in canonical clause order."""
    n_proj = draw(st.integers(min_value=1, max_value=4))
    projections = [
        Node("ProjClause", {}, [draw(scalar_exprs())]) for _ in range(n_proj)
    ]
    clauses = [Node("Project", {}, projections)]

    table = draw(_IDENT)
    clauses.append(Node("From", {}, [Node("TableRef", {"name": table})]))

    if draw(st.booleans()):
        n_conj = draw(st.integers(min_value=1, max_value=3))
        conjuncts = [draw(predicates()) for _ in range(n_conj)]
        clauses.append(Node("Where", {}, [Node("AndExpr", {}, conjuncts)]))

    if draw(st.booleans()):
        n_group = draw(st.integers(min_value=1, max_value=2))
        groups = [Node("GroupClause", {}, [draw(_COL)]) for _ in range(n_group)]
        clauses.append(Node("GroupBy", {}, groups))

    if draw(st.booleans()):
        clauses.append(
            Node(
                "Top",
                {},
                [Node("NumExpr", {"value": draw(st.integers(1, 1000))})],
            )
        )
    return Node("SelectStmt", {}, clauses)
