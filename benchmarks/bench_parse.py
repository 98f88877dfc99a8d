"""Parsing with and without template repetition.

Not a paper figure — this benchmarks :func:`~repro.sqlparser.parse_sql`
(the regex lexer and the template cache) against the reference parse in
``tests/oracle.py`` (the character-by-character lexer and the plain
recursive descent) on three arms:

* **repeated** — the SDSS 10k log's distinct statements, which fall into
  15 templates (token sequences with literal values abstracted), so all
  but a few statements per template instantiate a template;
* **no repeat** — SDSS statements renamed so that every statement is its
  own template: the cache never hits, and this arm measures what the
  regex lexer and the cache's bookkeeping cost when templates do not
  repeat;
* **twice** — the cache's worst case: each template is seen exactly
  twice, back to back, with other literals the second time.  The second
  sighting parses while recording literal sites and builds a template
  that never gets a hit.

Each arm parses the whole log from an empty template cache, and the two
parsers alternate over at least 5 repeats; the reported time is the
median.  The ASTs must equal the oracle's.  At full budget the repeated
arm must run at least 2x faster than the oracle and the no-repeat arm at
least 0.9x as fast; the twice arm is reported and gated only through the
committed baseline.

Writes ``results/BENCH_parse.json`` for CI's regression gate against
``benchmarks/baselines/bench_parse_baseline.json``: the dimensionless
speedups with 2x tolerance, and the statement and template counts
exactly.  Set ``REPRO_BENCH_BUDGET=tiny`` for the CI smoke variant.
"""

import gc
import json
import os
import re
import statistics
import time

from repro.cache.serialize import node_to_dict
from repro.logs import SDSSLogGenerator
from repro.sqlparser import parser
from repro.sqlparser.tokens import _scan
from tests import oracle

from helpers import emit, emit_json, run_once

TINY = os.environ.get("REPRO_BENCH_BUDGET") == "tiny"

#: queries in the SDSS log whose distinct statements form the repeated arm
LOG_QUERIES = 1000 if TINY else 10000
#: statements in the no-repeat arm, and in the twice arm
NO_REPEAT = 500 if TINY else 5000
REPEATS = 5 if TINY else 7


def _repeated() -> list[str]:
    return list(dict.fromkeys(SDSSLogGenerator(0).full_log(LOG_QUERIES).statements()))


def _no_repeat() -> list[str]:
    """SDSS statements whose first table name carries the statement's
    number, so no two share a template."""
    statements = SDSSLogGenerator(1).full_log(NO_REPEAT).statements()
    return [
        re.sub(r"\bFROM (\w+)", rf"FROM \g<1>_{number}", sql, count=1)
        for number, sql in enumerate(statements)
    ]


def _twice() -> list[str]:
    """Half the no-repeat arm, each statement followed by its twin with
    other literals: every integer incremented, every hex literal one digit
    longer (same template)."""

    def respelled(sql: str) -> str:
        return re.sub(
            r"\b(0[xX][0-9a-fA-F]+)\b|\b\d+\b",
            lambda match: match.group() + "1" if match.group(1) else str(int(match.group()) + 1),
            sql,
        )

    return [
        sql
        for first in _no_repeat()[: NO_REPEAT // 2]
        for sql in (first, respelled(first))
    ]


def _n_templates(statements: list[str]) -> int:
    return len({tuple(map(parser._ABSTRACT, _scan(sql))) for sql in statements})


def _parse_with_cache(statements: list[str]) -> list:
    parser._templates.clear()
    return [parser.parse_sql(sql) for sql in statements]


def _parse_with_oracle(statements: list[str]) -> list:
    return [oracle.parse_sql(sql) for sql in statements]


def _timed(parse, statements: list[str]) -> float:
    gc.collect()
    started = time.perf_counter()
    asts = parse(statements)
    seconds = time.perf_counter() - started
    assert len(asts) == len(statements)
    return seconds


def test_parse_templates(benchmark):
    """Template cache vs reference parse, with and without repetition."""
    arms = {"repeated": _repeated(), "no_repeat": _no_repeat(), "twice": _twice()}
    for name, statements in arms.items():
        got = _parse_with_cache(statements)
        for sql, ast in zip(statements, got):
            assert json.dumps(node_to_dict(ast)) == json.dumps(
                node_to_dict(oracle.parse_sql(sql))
            ), (name, sql)

    def run():
        seconds = {name: {"cache": [], "oracle": []} for name in arms}
        for repeat in range(REPEATS):
            for name, statements in arms.items():
                order = ("cache", "oracle") if repeat % 2 == 0 else ("oracle", "cache")
                for side in order:
                    parse = _parse_with_cache if side == "cache" else _parse_with_oracle
                    seconds[name][side].append(_timed(parse, statements))
        return seconds

    seconds = run_once(benchmark, run)

    payload = {
        "workload": {
            "sdss_log_queries": LOG_QUERIES,
            "repeats": REPEATS,
            "tiny_budget": TINY,
        }
    }
    lines = [f"parse_sql vs the reference parse, median of {REPEATS} repeats"]
    for name, statements in arms.items():
        cache = statistics.median(seconds[name]["cache"])
        reference = statistics.median(seconds[name]["oracle"])
        n_templates = _n_templates(statements)
        payload[f"speedup_parse_{name}"] = reference / cache
        payload[f"parse_us_{name}"] = cache / len(statements) * 1e6
        payload[f"oracle_us_{name}"] = reference / len(statements) * 1e6
        payload[f"n_statements_{name}"] = len(statements)
        payload[f"n_templates_{name}"] = n_templates
        lines.append(
            f"  {name:9s} {len(statements):5d} statements / {n_templates:5d} templates: "
            f"{payload[f'parse_us_{name}']:6.1f} us vs {payload[f'oracle_us_{name}']:6.1f} us "
            f"a statement (x{payload[f'speedup_parse_{name}']:.2f})"
        )
    emit_json("BENCH_parse", payload)
    emit("parse_templates", "\n".join(lines))

    assert payload["n_templates_no_repeat"] == payload["n_statements_no_repeat"]
    assert 2 * payload["n_templates_twice"] == payload["n_statements_twice"]
    assert len(set(arms["twice"])) == len(arms["twice"])
    if not TINY:
        assert payload["speedup_parse_repeated"] >= 2.0, payload
        assert payload["speedup_parse_no_repeat"] >= 0.9, payload
