"""Command line interface.

State persists between invocations through the snapshot file named by the
config (``snapshot_path``); a mutating command that succeeds, and a read
that moved traffic, rewrite it before they print.  Exit codes: 0 success
(``--help`` too), 1 user error (command usage, syntax, not found, bad
input) or a stdout reader that went away, 2 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    CorruptSnapshot,
    EmptyInput,
    IoFailure,
    MalformedInput,
    MalformedXml,
    NotFound,
    PatternSyntaxError,
    UnseedablePattern,
    UnsupportedWildcardRoot,
    UsageError,
)
from .rdfstore import parse_query_text, parse_triples_text
from .store import Store, StoreConfig, restore, snapshot

_USER_ERRORS = (
    PatternSyntaxError,
    NotFound,
    MalformedXml,
    EmptyInput,
    UnsupportedWildcardRoot,
    UnseedablePattern,
    IoFailure,
    CorruptSnapshot,
    MalformedInput,
    UsageError,
)


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are user errors: it prints the
    usage and raises UsageError, where argparse would exit with status 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _escape_payload(payload: str) -> str:
    return (
        payload.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
    )


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise IoFailure(str(exc)) from None


def _load_config(path: str) -> StoreConfig:
    return StoreConfig.from_text(_read(path))


def _load_store(config_path: str) -> Store:
    config = _load_config(config_path)
    return restore(config.snapshot_path)


def _save(store: Store) -> None:
    snapshot(store, store.config.snapshot_path)


def _run_read(store: Store, read):
    """``read()``, saving ``store`` if it moved traffic, even if it raised."""
    sent = store.stats.messages_sent
    try:
        return read()
    finally:
        if store.stats.messages_sent != sent:
            _save(store)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="store", description="XML resource store with tree-pattern queries"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, **kwargs)
        cmd.add_argument(
            "--config", default="store.cfg", help="config file (key=value lines)"
        )
        return cmd

    add("init", help="create an empty store from a config file")
    ingest = add("ingest", help="parse, label, and index XML files")
    ingest.add_argument("files", nargs="+")
    get = add("get", help="fetch one resource by id")
    get.add_argument("resource_id")
    query = add("query", help="run a tree-pattern query")
    query.add_argument("pattern")
    rdf_load = add("rdf-load", help="load tab-separated triples")
    rdf_load.add_argument("file")
    rdf_query = add("rdf-query", help="run a conjunctive triple query from a file")
    rdf_query.add_argument("file")
    add("stats", help="print the network transfer report")
    snap = add("snapshot", help="write a snapshot copy to a path")
    snap.add_argument("path")
    rest = add("restore", help="adopt the snapshot at a path as current state")
    rest.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(build_arg_parser().parse_args(argv))
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away; the state is already saved.  Python's
        # documented recipe: send what is still buffered to devnull, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "init":
        config = _load_config(args.config)
        store = Store(config)
        _save(store)
        print(f"initialized {config.backend} store -> {config.snapshot_path}")
        return 0

    if args.command == "restore":
        config = _load_config(args.config)
        store = restore(args.path)
        # adopt the state under the active config's snapshot path
        store.config.snapshot_path = config.snapshot_path
        _save(store)
        print(f"restored {store.config.backend} store from {args.path}")
        return 0

    store = _load_store(args.config)

    # commands that change the store save it before they print, so a
    # reader that stops reading loses no state
    if args.command == "ingest":
        lines = [f"{path}: {' '.join(store.store_resource(_read(path)))}"
                 for path in args.files]
        _save(store)
        print("\n".join(lines))
    elif args.command == "get":
        resource = _run_read(store, lambda: store.get_resource(args.resource_id))
        print(resource.payload)
    elif args.command == "query":
        result = _run_read(store, lambda: store.query(args.pattern))
        for resource in result.resources:
            print(f"{resource.resource_id}\t{_escape_payload(resource.payload)}")
        print(
            f"transferred {result.stats.bytes_sent} bytes "
            f"in {result.stats.messages_sent} messages",
            file=sys.stderr,
        )
    elif args.command == "rdf-load":
        count = store.rdf_load(parse_triples_text(_read(args.file)))
        _save(store)
        print(f"loaded {count} triples")
    elif args.command == "rdf-query":
        query = parse_query_text(_read(args.file))
        rows = _run_read(store, lambda: store.rdf_query(query))
        for row in rows:
            print("\t".join(row))
    elif args.command == "stats":
        sys.stdout.write(store.stats_report())
    elif args.command == "snapshot":
        snapshot(store, args.path)
        print(f"snapshot written to {args.path}")
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
