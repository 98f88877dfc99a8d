"""Command-line interface: ``python -m repro``.

Subcommands:

* ``mine``    — mine an interface per query-log file (one statement per
  line, or ``.jsonl``) and print it; optionally compile to an HTML app.
  Multiple log files shard across a process pool with ``--workers``.
* ``recall``  — train/hold-out recall for a log file.
* ``check``   — closure-membership check of one query against a log.
* ``serve``   — replay a (multi-client) query log through a
  :class:`~repro.service.SessionPool`: per-client batches shard across
  ``--pool-size`` worker processes behind bounded ``--queue-depth``
  queues, and the drained per-client interfaces are reported.  With
  ``--cache-dir`` the workers share one graph store and publish their
  graphs and widget sets on drain; add
  ``--daemon-socket`` to route that store through a running daemon.
  ``--follow`` streams each append's outcome live as workers finish it
  (JSONL events under ``--json``) instead of reporting only at drain.
  ``Ctrl-C`` mid-replay drains what completed, reports partial stats,
  and exits 130.
* ``daemon``  — run the long-lived store daemon
  (:class:`~repro.service.daemon.StoreDaemon`): one process owns the
  cache directory's segment files and serves them over a unix-domain
  socket; ``serve``/``mine`` attach with ``--daemon-socket``, and
  ``cache stats --remote`` reads its per-client meters.  Stop with
  ``Ctrl-C`` (clean exit 0).
* ``cache``   — manage a persistent cache directory: ``cache stats``
  reports occupancy (per-segment live/tombstoned counts and compaction
  debt), ``cache prune`` evicts
  least-recently-used entries down to ``--max-bytes``/``--max-entries``,
  ``cache clear`` empties it, ``cache import`` folds a legacy
  one-file-per-record JSON layout in the directory into its segments,
  and ``cache export --dest DIR`` writes the store out in that layout
  (byte for byte, so an export imports back to identical records).  All
  exit cleanly (code 0) on a store directory that exists but holds no
  entries.
* ``lint``    — run the :mod:`repro.analysis` invariant linter over the
  repository's own source (exit 0 clean, 1 findings, 2 usage error).

``mine`` and ``recall`` accept ``--json`` to dump the run's
:class:`~repro.api.result.GenerationResult` statistics as machine-readable
JSON (consumed by the benchmarks and dashboards).

The generation subcommands accept ``--cache-dir``: mined interaction
graphs *and* widget sets are persisted there (a
:class:`~repro.cache.store.GraphStore`), and a repeat run over an
unchanged log skips mining, mapping, and merging entirely — the ``--json``
output's ``cache``/``mine``/``merge`` stage stats show the hits.

Example::

    python -m repro mine mylog.sql --html out.html
    python -m repro mine mylog.sql --json --cache-dir .repro-cache
    python -m repro mine clientA.sql clientB.sql clientC.sql --workers 2
    python -m repro serve multiclient.jsonl --pool-size 4 --queue-depth 8
    python -m repro daemon --cache-dir .repro-cache --socket /tmp/repro.sock
    python -m repro serve multiclient.jsonl --follow \
        --cache-dir .repro-cache --daemon-socket /tmp/repro.sock
    python -m repro check mylog.sql "SELECT * FROM t WHERE x = 5"
    python -m repro cache stats --cache-dir .repro-cache --json
    python -m repro cache stats --cache-dir .repro-cache --remote /tmp/repro.sock
    python -m repro cache prune --cache-dir .repro-cache --max-entries 100
    python -m repro cache export --cache-dir .repro-cache --dest backup
    python -m repro cache import --cache-dir backup
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

from repro import PipelineOptions, generate, generate_many, generate_segmented, parse_sql
from repro.compiler import compile_html
from repro.errors import ReproError
from repro.logs.io import load_log, load_text


def _options(args: argparse.Namespace) -> PipelineOptions:
    return PipelineOptions(
        window=None if args.window == 0 else args.window,
        lca_pruning=not args.no_pruning,
        merge=not args.no_merge,
        cache_dir=args.cache_dir,
        daemon_socket=getattr(args, "daemon_socket", None),
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, default=2,
                        help="sliding window (0 = all pairs)")
    parser.add_argument("--no-pruning", action="store_true",
                        help="disable LCA pruning")
    parser.add_argument("--no-merge", action="store_true",
                        help="disable the widget merging phase")
    parser.add_argument("--json", action="store_true",
                        help="dump generation statistics as JSON")
    parser.add_argument("--cache-dir",
                        help="persist mined interaction graphs in this "
                             "directory and reuse them on repeat runs")
    parser.add_argument("--daemon-socket",
                        help="route the cache store through the daemon "
                             "on this unix socket (requires --cache-dir; "
                             "falls back to direct access when no daemon "
                             "answers)")


def _html_target(
    html: str, source: str, n_results: int, written: set[str]
) -> Path:
    """Where one result's HTML goes.

    A single result uses ``--html`` verbatim.  Multiple results prefix
    the *file name* (never the directory part) with the result's source
    stem, and same-stem collisions get a numeric suffix instead of
    silently overwriting an earlier interface.
    """
    target = Path(html)
    if n_results > 1:
        stem = source.rsplit("/", 1)[-1]
        target = target.with_name(f"{stem}-{target.name}")
    if str(target) in written:
        base = target
        counter = 2
        while str(target) in written:
            target = base.with_name(f"{base.stem}-{counter}{base.suffix}")
            counter += 1
    return target


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    options = _options(args)
    logs = [load_log(path) for path in args.logs]
    if args.segment:
        if len(logs) > 1:
            raise ReproError("--segment takes exactly one log file")
        results = generate_segmented(logs[0], options=options, workers=args.workers)
    elif len(logs) == 1:
        results = [generate(logs[0], options=options)]
    else:
        results = generate_many(logs, options=options, workers=args.workers)
    payloads = []
    written: set[str] = set()
    for result in results:
        source = result.provenance["source"]
        if args.json:
            payloads.append(result.to_dict())
        else:
            print(f"# {source}: {result.provenance['n_queries']} queries")
            print(result.interface.describe())
            run = result.run
            print(
                f"(mined {run.n_diffs} diffs / {run.n_edges} edges "
                f"in {run.total_seconds * 1000:.0f} ms)\n"
            )
        if args.html:
            path = _html_target(args.html, source, len(results), written)
            written.add(str(path))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(compile_html(result, title=source))
            if not args.json:
                print(f"wrote {path}")
    if args.json:
        # fixed shape: --segment and multi-file batches always emit a list
        # (one payload per interface), a single plain log emits one object
        single = len(args.logs) == 1 and not args.segment
        print(json.dumps(payloads[0] if single else payloads, indent=2))
    return 0


def _cmd_recall(args: argparse.Namespace) -> int:
    log = load_text(args.log)
    asts = [parse_sql(s) for s in log.statements()]
    split = max(1, int(len(asts) * args.split))
    result = generate(asts[:split], options=_options(args), source=log.name)
    recall = result.interface.expressiveness(asts[split:])
    if args.json:
        payload = result.to_dict()
        payload["recall"] = {
            "n_training": split,
            "n_holdout": len(asts) - split,
            "recall": recall,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"training {split} / holdout {len(asts) - split}: recall {recall:.3f}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    log = load_text(args.log)
    result = generate(
        [parse_sql(s) for s in log.statements()],
        options=_options(args),
        source=log.name,
    )
    verdict = result.interface.expresses(parse_sql(args.query))
    if args.json:
        print(json.dumps({"query": args.query, "expressible": verdict}))
    else:
        print("expressible" if verdict else "NOT expressible")
    return 0 if verdict else 1


def _print_follow_event(ack: "AppendAck", json_mode: bool) -> None:
    """One live line per processed append (``serve --follow``)."""
    if json_mode:
        event = {
            "event": "result",
            "client": ack.client_id,
            "seq": ack.seq,
            "ok": ack.ok,
            "n_queries": ack.n_queries,
            "n_widgets": ack.n_widgets,
            "error": ack.error,
        }
        if ack.compiled is not None:
            # serve --compile: the compiled interface (structural patch
            # or full page) rides on the same JSONL event
            event["compiled"] = ack.compiled
        print(json.dumps(event), flush=True)
    elif ack.ok:
        compiled = ""
        if ack.compiled is not None:
            kind = ack.compiled.get("kind", "patch")
            if kind == "error":
                compiled = f" (compile failed: {ack.compiled['error']})"
            elif kind == "page_html":
                compiled = f" (page: {len(ack.compiled['html'])} bytes)"
            elif kind == "page":
                compiled = " (full page patch)"
            else:
                compiled = f" (patch: {len(ack.compiled.get('blocks', {}))} block(s)"
                # result entries ride along only when a database is attached
                results = len(ack.compiled.get("closure_set", {}))
                if results:
                    compiled += f", {results} result(s)"
                compiled += ")"
        print(
            f"[{ack.client_id}] batch #{ack.seq}: {ack.n_queries} queries "
            f"-> {ack.n_widgets} widget(s) in {ack.seconds * 1000:.0f} ms"
            f"{compiled}",
            flush=True,
        )
    else:
        print(f"[{ack.client_id}] batch #{ack.seq} FAILED: {ack.error}", flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SessionPool

    if args.batch_size < 1:
        raise ReproError(f"--batch-size must be >= 1, got {args.batch_size}")
    if getattr(args, "compile", None) and not args.follow:
        raise ReproError("--compile requires --follow (it streams per-append)")
    log = load_log(args.log)
    by_client = log.by_client()
    # round-robin interleave of per-client batches: the arrival pattern a
    # live deployment sees, and the pattern that exercises the shards
    arrivals: list[tuple[str, list[str]]] = []
    pending = {
        client: client_log.statements() for client, client_log in by_client.items()
    }
    while pending:
        for client in list(pending):
            statements = pending[client]
            arrivals.append((client, statements[: args.batch_size]))
            rest = statements[args.batch_size:]
            if rest:
                pending[client] = rest
            else:
                del pending[client]
    interrupted = False
    results: dict[str, Any] = {}
    with SessionPool(
        options=_options(args),
        pool_size=args.pool_size,
        queue_depth=args.queue_depth,
    ) as pool:
        try:
            if args.follow:
                results = asyncio.run(
                    pool.serve(
                        iter(arrivals),
                        on_result=lambda ack: _print_follow_event(ack, args.json),
                        compile=getattr(args, "compile", None),
                    )
                )
            else:
                for client, batch in arrivals:
                    pool.submit(client, batch)
                results = pool.drain()
        except KeyboardInterrupt:
            # mid-replay Ctrl-C: collect what the workers completed, report
            # partial stats, and exit with the conventional 130 — never
            # die silently with results sitting in the outbox
            interrupted = True
            try:
                results = pool.drain(strict=False)
            except (KeyboardInterrupt, ReproError):
                results = {}  # second Ctrl-C or dead worker: report stats only
        stats = pool.stats()
    payload = {
        "pool": {
            "pool_size": stats.pool_size,
            "queue_depth": stats.queue_depth,
            "n_batches": stats.n_submitted,
            "n_clients": stats.n_clients,
        },
        "clients": {
            client: {
                "n_queries": result.provenance["n_queries"],
                "n_widgets": len(result.interface.widgets),
                "cost": sum(w.cost for w in result.interface.widgets),
            }
            for client, result in sorted(results.items())
        },
    }
    if interrupted:
        payload["interrupted"] = True
    if args.json:
        if args.follow:
            # --follow --json is a JSONL stream: one final summary event
            # after the per-result events
            print(json.dumps({"event": "drained", **payload}), flush=True)
        else:
            print(json.dumps(payload, indent=2))
    else:
        served = "partially served" if interrupted else "served"
        print(
            f"{served} {stats.n_submitted} batch(es) from "
            f"{stats.n_clients} client(s) across {stats.pool_size} worker(s)"
        )
        for client, result in sorted(results.items()):
            print(f"# {client}: {result.provenance['n_queries']} queries")
            print(result.interface.describe())
        if interrupted:
            print("interrupted: results above cover completed batches only")
    return 130 if interrupted else 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    from repro.service.daemon import StoreDaemon

    daemon = StoreDaemon(
        args.cache_dir,
        args.socket,
        max_bytes=args.max_bytes,
        max_entries=args.max_entries,
        quota_requests=args.quota_requests,
        quota_bytes=args.quota_bytes,
    )
    print(
        f"store daemon (pid {os.getpid()}) serving {args.cache_dir} "
        f"on {args.socket}",
        flush=True,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass  # Ctrl-C is the normal way to stop a foreground daemon
    finally:
        daemon.stop()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache.store import GraphStore

    # maintenance must not invent directories: a typo'd --cache-dir should
    # error out, not report a plausible empty store (and leave litter)
    if not Path(args.cache_dir).is_dir():
        raise ReproError(f"cache directory {args.cache_dir} does not exist")
    remote = getattr(args, "remote", None)
    store = GraphStore(args.cache_dir, remote=remote)
    if remote is not None and store.remote is None:
        print(
            f"warning: no daemon answered on {remote}; "
            "reporting the local store directly",
            file=sys.stderr,
        )
    if args.cache_command == "stats":
        payload = store.stats()
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"{payload['n_keys']} key(s) [{payload['format']}]: "
                f"{payload['n_graphs']} graph(s), "
                f"{payload['n_widget_sets']} widget set(s), "
                f"{payload['total_bytes']} bytes"
            )
            for table, n_bytes in payload["bytes_by_table"].items():
                entry = payload["tables"][table]
                print(
                    f"  {table}: {n_bytes} bytes "
                    f"({entry['n_live']} live, "
                    f"{entry['n_tombstoned']} tombstoned, "
                    f"{entry['compaction_debt_bytes']} bytes "
                    f"compaction debt)"
                )
            daemon = payload.get("daemon")
            if daemon:
                print(
                    f"daemon pid {daemon['pid']} on {daemon['socket']}, "
                    f"up {daemon['uptime_seconds']:.0f}s"
                )
                for client, meter in daemon["clients"].items():
                    print(
                        f"  client {client}: {meter['requests']} request(s), "
                        f"{meter['bytes_in']} B in / {meter['bytes_out']} B out, "
                        f"{meter['refused']} refused"
                    )
        return 0
    if args.cache_command == "import":
        summary = store.import_json()
        payload = {**summary, **store.stats()}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"imported {summary['imported_keys']} key(s); "
                f"{summary['orphans_dropped']} orphan(s) dropped, "
                f"{payload['total_bytes']} bytes"
            )
        return 0
    if args.cache_command == "export":
        try:
            summary = store.export_json(args.dest)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        if args.json:
            print(json.dumps({**summary, "dest": args.dest}, indent=2))
        else:
            print(
                f"exported {summary['exported_keys']} key(s) to {args.dest}; "
                f"{summary['orphans_dropped']} orphan(s) dropped"
            )
        return 0
    if args.cache_command == "prune":
        if args.max_bytes is None and args.max_entries is None:
            # an empty store prunes to an empty store under any cap — a
            # clean no-op report, not a usage error (scripted maintenance
            # over fresh directories must not trip on them)
            if not store.stats()["n_keys"]:
                removed = 0
                payload = {"removed": removed, **store.stats()}
                if args.json:
                    print(json.dumps(payload, indent=2))
                else:
                    print("store is empty; nothing to prune")
                return 0
            raise ReproError(
                "cache prune needs --max-bytes and/or --max-entries"
            )
        try:
            removed = store.prune(
                max_bytes=args.max_bytes, max_entries=args.max_entries
            )
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    else:  # clear
        removed = store.clear()
    payload = {"removed": removed, **store.stats()}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"removed {removed} key(s); {payload['n_keys']} left, "
            f"{payload['total_bytes']} bytes"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(
        paths=args.paths,
        json_output=args.json,
        select=args.select,
        ignore=args.ignore,
        config_path=args.config,
        list_rules=args.list_rules,
    )


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch the subcommand, and return the exit code
    (0 success, 1 negative ``check`` verdict or a closed stdout, 2 for
    any library error)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Precision Interfaces (SIGMOD 2019) reproduction"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser("mine", help="mine an interface from a log")
    mine.add_argument("logs", nargs="+", metavar="log",
                      help="query log file(s); one statement per line, or "
                           ".jsonl with metadata")
    _add_common(mine)
    mine.add_argument("--html", help="compile the interface to an HTML file")
    mine.add_argument("--segment", action="store_true",
                      help="segment the log into analyses first")
    mine.add_argument("--workers", type=int, default=1,
                      help="shard multiple logs (or segments) across this "
                           "many worker processes")
    mine.set_defaults(fn=_cmd_mine)

    serve = commands.add_parser(
        "serve",
        help="serve a multi-client log through a cross-process session pool",
    )
    serve.add_argument("log", help="query log file; .jsonl rows carry a "
                                   "'client' field, plain text is one client")
    _add_common(serve)
    serve.add_argument("--pool-size", type=int, default=2,
                       help="number of session worker processes (default 2)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="bounded per-worker queue depth in batches; "
                            "submits block when a shard is full (default 8)")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="statements per submitted batch (default 8)")
    serve.add_argument("--follow", action="store_true",
                       help="stream each append's outcome live as workers "
                            "finish it (JSONL events with --json) instead "
                            "of reporting only at drain")
    serve.add_argument("--compile", choices=("page", "patch"),
                       help="with --follow: compile each append's interface "
                            "in the worker and stream it on the event — "
                            "'patch' emits structural patches (replaced "
                            "widget blocks), 'page' the full HTML page")
    serve.set_defaults(fn=_cmd_serve)

    daemon = commands.add_parser(
        "daemon",
        help="run the long-lived store daemon owning a cache directory",
    )
    daemon.add_argument("--cache-dir", required=True,
                        help="the GraphStore directory the daemon owns "
                             "(created if missing)")
    daemon.add_argument("--socket", required=True,
                        help="unix-domain socket path to listen on "
                             "(keep it short; ~100 byte OS limit)")
    daemon.add_argument("--max-bytes", type=int,
                        help="fleet-wide LRU cap on total store bytes")
    daemon.add_argument("--max-entries", type=int,
                        help="fleet-wide LRU cap on cached keys")
    daemon.add_argument("--quota-requests", type=int,
                        help="per-client cap on total requests")
    daemon.add_argument("--quota-bytes", type=int,
                        help="per-client cap on total transferred bytes")
    daemon.set_defaults(fn=_cmd_daemon)

    recall = commands.add_parser("recall", help="train/holdout recall")
    recall.add_argument("log", help="query log file, one statement per line")
    _add_common(recall)
    recall.add_argument("--split", type=float, default=0.5,
                        help="training fraction (default 0.5)")
    recall.set_defaults(fn=_cmd_recall)

    check = commands.add_parser("check", help="closure membership of a query")
    check.add_argument("log", help="query log file, one statement per line")
    _add_common(check)
    check.add_argument("query", help="SQL statement to test")
    check.set_defaults(fn=_cmd_check)

    cache = commands.add_parser("cache", help="manage a cache directory")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    for sub_name, sub_help in (
        ("stats", "report the cache directory's occupancy"),
        ("prune", "evict least-recently-used entries down to the caps"),
        ("clear", "remove every cached entry"),
        ("import", "fold legacy JSON-layout files into the store"),
        ("export", "write the store out in the legacy JSON layout"),
    ):
        sub = cache_commands.add_parser(sub_name, help=sub_help)
        sub.add_argument("--cache-dir", required=True,
                         help="the GraphStore directory to manage")
        sub.add_argument("--json", action="store_true",
                         help="dump the result as JSON")
        if sub_name == "stats":
            sub.add_argument("--remote",
                             help="read through the store daemon on this "
                                  "unix socket (adds its per-client "
                                  "request/byte meters to the report)")
        if sub_name == "prune":
            sub.add_argument("--max-bytes", type=int,
                             help="keep at most this many bytes of entries")
            sub.add_argument("--max-entries", type=int,
                             help="keep at most this many cached keys")
        if sub_name == "export":
            sub.add_argument("--dest", required=True,
                             help="directory to write the JSON files to")
        sub.set_defaults(fn=_cmd_cache)

    lint = commands.add_parser(
        "lint", help="lint the source tree against the repo's invariants"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(fn=_cmd_lint)

    args = parser.parse_args(argv)
    try:
        code: int = args.fn(args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone (``| head``): exit quietly, with
        # stdout on devnull so the interpreter's last flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
