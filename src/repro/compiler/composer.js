// The page's query composer (Section 5.3): when a widget moves, compose
// the internal query q from the initial query q0 and every widget's
// state, and render it to SQL.  A port of three Python functions:
//   repro.compiler.html.compose_query       -> composeSql
//   repro.core.closure.apply_widget_choice  -> applyChoice
//   repro.sqlparser.render.render_sql       -> renderSql
//
// Trees are the JSON the compiler ships (repro.compiler.html.node_data):
// {t: node type, a: attributes, s: SQL text of a literal leaf as Python
// renders it, c: children}; absent keys mean none.  A widget's spec is
// {path: child indices from the root, guard: the node types a deletion
// may remove (empty: any), choices: the subtree (or null, "absent") of
// each choice index from 1 on}; choice 0 leaves the query unchanged.
// Trees are never mutated: an edit rebuilds the spine above it.
// Where Python raises, these functions throw.

function child(node, index) {
  const kids = node.c || [];
  if (index >= kids.length) throw new Error(`${node.t} has no child ${index}`);
  return kids[index];
}

function exactly(node, count) {
  const kids = node.c || [];
  if (kids.length !== count) {
    throw new Error(`${node.t} has ${kids.length} children, expected ${count}`);
  }
  return kids;
}

function attr(node, name) {
  const attributes = node.a || {};
  if (!Object.hasOwn(attributes, name)) {
    throw new Error(`${node.t} lacks attribute ${name}`);
  }
  return String(attributes[name]);
}

function optional(node, name) {
  const attributes = node.a || {};
  return Object.hasOwn(attributes, name) ? attributes[name] : undefined;
}

// ---------------------------------------------------------------------
// path addressing (repro.sqlparser.astnodes.Node)
// ---------------------------------------------------------------------
function hasPath(node, path) {
  for (const step of path) {
    const kids = node.c || [];
    if (step >= kids.length) return false;
    node = kids[step];
  }
  return true;
}

function getPath(node, path) {
  for (const step of path) node = node.c[step];
  return node;
}

// a copy of the tree with edit(target) in place of the node at path
function rebuild(node, path, edit, depth = 0) {
  if (depth === path.length) return edit(node);
  const kids = (node.c || []).slice();
  kids[path[depth]] = rebuild(kids[path[depth]], path, edit, depth + 1);
  return Object.assign({}, node, { c: kids });
}

function spliced(node, index, remove, insert) {
  const kids = (node.c || []).slice();
  kids.splice(index, remove, ...insert);
  return Object.assign({}, node, { c: kids });
}

// ---------------------------------------------------------------------
// composing (repro.core.closure.apply_widget_choice)
// ---------------------------------------------------------------------
function applyChoice(query, spec, entry) {
  const path = spec.path;
  if (entry === null) {
    if (path.length === 0 || !hasPath(query, path)) return query;
    const node = getPath(query, path);
    if (spec.guard.length && !spec.guard.includes(node.t)) return query;
    // never empty a collection: deleting the only projection / group-by
    // column / conjunct would leave an unrenderable clause
    const parentPath = path.slice(0, -1);
    if ((getPath(query, parentPath).c || []).length <= 1) return query;
    return rebuild(query, parentPath, (parent) => spliced(parent, path[path.length - 1], 1, []));
  }
  if (path.length === 0) return entry;
  if (hasPath(query, path)) return rebuild(query, path, () => entry);
  const parentPath = path.slice(0, -1);
  if (!hasPath(query, parentPath)) return query;
  const index = Math.min(path[path.length - 1], (getPath(query, parentPath).c || []).length);
  return rebuild(query, parentPath, (parent) => spliced(parent, index, 0, [entry]));
}

// widgets apply in page (grid) order, ancestors first
function composeSql(q0, specs, combo) {
  let query = q0;
  specs.forEach((spec, position) => {
    const index = combo[position];
    if (index === 0) return;
    if (!(index >= 1 && index <= spec.choices.length)) {
      throw new Error(`widget ${position} has no choice ${index}`);
    }
    query = applyChoice(query, spec, spec.choices[index - 1]);
  });
  return renderSql(query);
}

// ---------------------------------------------------------------------
// rendering (repro.sqlparser.render)
// ---------------------------------------------------------------------
const PRECEDENCE = {
  OR: 1, AND: 2, NOT: 3,
  "=": 4, "<>": 4, "<": 4, ">": 4, "<=": 4, ">=": 4, LIKE: 4,
  "+": 5, "-": 5, "||": 5,
  "*": 6, "/": 6, "%": 6,
};

const CLAUSES = ["Top", "Distinct", "Project", "From", "Where", "GroupBy", "Having", "OrderBy", "Limit"];

function renderSql(node) {
  if (node.t === "SelectStmt") return renderSelect(node);
  if (node.t === "SetOpStmt") {
    const [left, right] = exactly(node, 2);
    const op = optional(node, "op");
    return `${renderSql(left)} ${op === undefined ? "UNION" : String(op)} ${renderSql(right)}`;
  }
  throw new Error(`cannot render statement of type ${node.t}`);
}

function renderSelect(node) {
  const clauses = new Map();
  for (const clause of node.c || []) {
    if (clauses.has(clause.t)) throw new Error(`duplicate ${clause.t} clause`);
    clauses.set(clause.t, clause);
  }
  const parts = ["SELECT"];
  if (clauses.has("Top")) parts.push(`TOP ${expr(child(clauses.get("Top"), 0))}`);
  if (clauses.has("Distinct")) parts.push("DISTINCT");
  const project = clauses.get("Project");
  if (project === undefined) throw new Error("SELECT without a Project clause");
  parts.push((project.c || []).map(renderProjection).join(", "));
  if (clauses.has("From")) parts.push("FROM " + (clauses.get("From").c || []).map(fromItem).join(", "));
  if (clauses.has("Where")) parts.push("WHERE " + expr(child(clauses.get("Where"), 0)));
  if (clauses.has("GroupBy")) {
    parts.push("GROUP BY " + (clauses.get("GroupBy").c || []).map((c) => expr(child(c, 0))).join(", "));
  }
  if (clauses.has("Having")) parts.push("HAVING " + expr(child(clauses.get("Having"), 0)));
  if (clauses.has("OrderBy")) parts.push("ORDER BY " + (clauses.get("OrderBy").c || []).map(renderOrder).join(", "));
  const limit = clauses.get("Limit");
  if (limit !== undefined) {
    parts.push("LIMIT " + expr(child(limit, 0)));
    if ((limit.c || []).length > 1) parts.push("OFFSET " + expr(child(limit, 1)));
  }
  const unknown = [...clauses.keys()].filter((name) => !CLAUSES.includes(name));
  if (unknown.length) throw new Error(`unknown SELECT clauses ${unknown.sort().join(", ")}`);
  return parts.join(" ");
}

function renderProjection(clause) {
  if (clause.t !== "ProjClause") throw new Error(`bad projection item ${clause.t}`);
  let text = expr(child(clause, 0));
  if ((clause.c || []).length > 1) text += ` AS ${attr(child(clause, 1), "name")}`;
  return text;
}

function aliased(node, text) {
  const alias = optional(node, "alias");
  return alias ? `${text} AS ${alias}` : text;
}

function fromItem(node) {
  switch (node.t) {
    case "TableRef":
      return aliased(node, attr(node, "name"));
    case "FuncTableRef": {
      const args = (node.c || []).slice(1).map((c) => expr(c)).join(", ");
      return aliased(node, `${attr(child(node, 0), "name")}(${args})`);
    }
    case "SubqueryRef":
      return aliased(node, `(${renderSql(child(node, 0))})`);
    case "JoinRef": {
      const joinType = optional(node, "join_type");
      const type = joinType === undefined ? "INNER" : String(joinType);
      const keyword = type === "INNER" ? "JOIN" : `${type} JOIN`;
      let text = `${fromItem(child(node, 0))} ${keyword} ${fromItem(child(node, 1))}`;
      if ((node.c || []).length > 2 && node.c[2].t === "OnClause") text += " ON " + expr(child(node.c[2], 0));
      return text;
    }
    default:
      throw new Error(`unknown FROM item ${node.t}`);
  }
}

function renderOrder(clause) {
  let text = expr(child(clause, 0));
  if ((clause.c || []).length > 1 && clause.c[1].t === "SortDir") text += " " + attr(clause.c[1], "value");
  return text;
}

function wrap(text, prec, parentPrec) {
  return prec < parentPrec ? `(${text})` : text;
}

function literal(node) {
  if (node.s === undefined) throw new Error(`${node.t} has no SQL text`);
  return node.s;
}

const EXPRESSIONS = {
  NumExpr: literal,
  HexExpr: literal,
  StrExpr: literal,
  BoolExpr: literal,
  ColExpr: (node) => attr(node, "name"),
  StarExpr: () => "*",
  NullExpr: () => "NULL",
  BiExpr(node, parentPrec) {
    const op = attr(node, "op");
    const prec = Object.hasOwn(PRECEDENCE, op) ? PRECEDENCE[op] : 4;
    const text = `${expr(child(node, 0), prec)} ${op} ${expr(child(node, 1), prec + 1)}`;
    return wrap(text, prec, parentPrec);
  },
  AndExpr: (node, parentPrec) => wrap((node.c || []).map((c) => expr(c, 2)).join(" AND "), 2, parentPrec),
  OrExpr: (node, parentPrec) => wrap((node.c || []).map((c) => expr(c, 1)).join(" OR "), 1, parentPrec),
  NotExpr: (node, parentPrec) => wrap(`NOT ${expr(child(node, 0), 3)}`, 3, parentPrec),
  UnaryExpr: (node) => `-${expr(child(node, 0), 7)}`,
  FuncExpr(node) {
    const name = attr(child(node, 0), "name");
    const args = (node.c || []).slice(1);
    const inner = args.length && args[0].t === "Distinct"
      ? "DISTINCT " + args.slice(1).map((c) => expr(c)).join(", ")
      : args.map((c) => expr(c)).join(", ");
    return `${name}(${inner})`;
  },
  BetweenExpr(node, parentPrec) {
    const [target, low, high] = exactly(node, 3);
    return wrap(`${expr(target, 4)} BETWEEN ${expr(low, 4)} AND ${expr(high, 4)}`, 4, parentPrec);
  },
  InExpr(node, parentPrec) {
    const [target, rhs] = exactly(node, 2);
    const inner = rhs.t === "InList" ? (rhs.c || []).map((c) => expr(c)).join(", ") : renderSql(rhs);
    return wrap(`${expr(target, 4)} IN (${inner})`, 4, parentPrec);
  },
  IsNullExpr(node, parentPrec) {
    const op = optional(node, "negated") ? "IS NOT NULL" : "IS NULL";
    return wrap(`${expr(child(node, 0), 4)} ${op}`, 4, parentPrec);
  },
  ExistsExpr: (node) => `EXISTS (${renderSql(child(node, 0))})`,
  ScalarSubquery: (node) => `(${renderSql(child(node, 0))})`,
  CaseExpr(node) {
    const parts = ["CASE"];
    for (const part of node.c || []) {
      if (part.t === "CaseInput") parts.push(expr(child(part, 0)));
      else if (part.t === "WhenClause") {
        const [cond, result] = exactly(part, 2);
        parts.push(`WHEN ${expr(cond)} THEN ${expr(result)}`);
      } else if (part.t === "ElseClause") parts.push(`ELSE ${expr(child(part, 0))}`);
      else throw new Error(`bad CASE child ${part.t}`);
    }
    parts.push("END");
    return parts.join(" ");
  },
  CastExpr(node) {
    const inner = expr(child(node, 0));
    if ((node.c || []).length > 1 && node.c[1].t === "TypeName") {
      return `CAST(${inner} AS ${attr(node.c[1], "name")})`;
    }
    return `CAST(${inner})`;
  },
};

function expr(node, parentPrec = 0) {
  if (!Object.hasOwn(EXPRESSIONS, node.t)) {
    throw new Error(`cannot render expression of type ${node.t}`);
  }
  return EXPRESSIONS[node.t](node, parentPrec);
}

// ---------------------------------------------------------------------
// the page: read the widgets, show the composed query and its result
// ---------------------------------------------------------------------
if (typeof document !== "undefined") {
  const byId = (id) => document.getElementById(id);
  const specs = WIDGET_IDS.map((id) => JSON.parse(byId(id).dataset.spec));
  const currentCombo = () => WIDGET_IDS.map((id) => {
    const el = byId(id);
    if (el.type === "checkbox") return el.checked ? Number(el.dataset.on || "1") : 0;
    return Number(el.value);
  });
  const refresh = () => {
    const sqlDiv = byId("sql");
    const resultDiv = byId("result");
    let sql;
    try {
      sql = composeSql(Q0, specs, currentCombo());
    } catch (error) {
      const miss = document.createElement("span");
      miss.className = "miss";
      miss.textContent = `-- cannot compose this combination: ${error.message} --`;
      sqlDiv.replaceChildren(miss);
      resultDiv.textContent = "";
      return;
    }
    sqlDiv.textContent = sql;
    resultDiv.textContent = Object.hasOwn(RESULTS, sql)
      ? RESULTS[sql]
      : "(no result pre-computed)";
  };
  for (const id of WIDGET_IDS) {
    byId(id).addEventListener("input", refresh);
    byId(id).addEventListener("change", refresh);
  }
  refresh();
}
