import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import twigstore
from twigstore.cli import main
from twigstore.store import Store

from helpers import deflated, plain_snapshot, write_snapshot

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"

CONFIG = """backend=p2p
peer_count=4
resource_granularity=par
snapshot_path={snap}
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "store.cfg").write_text(
        CONFIG.format(snap=tmp_path / "demo.snap"), encoding="utf-8"
    )
    (tmp_path / "d1.xml").write_text(D1, encoding="utf-8")
    (tmp_path / "triples.tsv").write_text(
        "a\ttype\tDoc\na\tauthor\tb\n", encoding="utf-8"
    )
    (tmp_path / "q.rq").write_text(
        "SELECT ?x ?y\n?x type Doc\n?x author ?y\n", encoding="utf-8"
    )
    assert main(["init"]) == 0
    return tmp_path


def test_init_writes_snapshot(workdir, capsys):
    assert (workdir / "demo.snap").exists()
    assert main(["init"]) == 0  # re-init resets to an empty store
    assert "initialized p2p store" in capsys.readouterr().out


def test_ingest_get_query(workdir, capsys):
    assert main(["ingest", "d1.xml"]) == 0
    assert "1#1 1#6" in capsys.readouterr().out
    assert main(["get", "1#6"]) == 0
    assert capsys.readouterr().out.strip() == "<par>xml</par>"
    assert main(["query", '//sec[/title="dht"]!']) == 0
    out = capsys.readouterr().out
    assert "1#2\t<sec><title>dht</title><par>xml</par></sec>" in out


def test_query_persists_stats(workdir, capsys):
    main(["ingest", "d1.xml"])
    main(["query", "//par!"])
    capsys.readouterr()
    assert main(["stats"]) == 0
    report = capsys.readouterr().out
    assert report.strip().endswith(tuple("0123456789"))
    total = [ln for ln in report.splitlines() if ln.startswith("total")]
    assert total and int(total[0].split()[2]) > 0


def test_query_beyond_the_integer_window_prints_nothing(workdir, capsys):
    (workdir / "c.xml").write_text("<r><c>5</c></r>", encoding="utf-8")
    assert main(["ingest", "d1.xml", "c.xml"]) == 0
    capsys.readouterr()
    assert main(["query", "//c in 10000000000000000000..10000000000000000005!"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" not in captured.err


def _run_with_closed_stdout(workdir, *argv):
    """Run the CLI as a child process whose stdout is a pipe that nobody
    reads any more: the read end is closed before the child starts."""
    src = str(Path(twigstore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "twigstore.cli", *argv], cwd=workdir, env=env,
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ["get", "1#6"], ["query", "//par!"], ["rdf-query", "q.rq"],
    ["ingest", "d1.xml"], ["rdf-load", "triples.tsv"],
], ids=lambda argv: argv[0])
def test_closed_stdout_is_no_internal_error(workdir, capsys, argv):
    assert main(["ingest", "d1.xml"]) == 0
    assert main(["rdf-load", "triples.tsv"]) == 0
    shutil.copy(workdir / "demo.snap", workdir / "before.snap")
    done = _run_with_closed_stdout(workdir, *argv)
    assert b"internal error" not in done.stderr
    assert done.returncode == 1
    saved = (workdir / "demo.snap").read_bytes()
    # the child saved what the same command saves when its output is read
    assert main(["restore", "before.snap"]) == 0
    assert main(argv) == 0
    assert saved == (workdir / "demo.snap").read_bytes()
    if argv[0] != "get":
        assert saved != (workdir / "before.snap").read_bytes()


def test_rdf_cycle(workdir, capsys):
    assert main(["rdf-load", "triples.tsv"]) == 0
    capsys.readouterr()
    assert main(["rdf-query", "q.rq"]) == 0
    assert capsys.readouterr().out.strip() == "a\tb"


def test_snapshot_restore_cycle(workdir, capsys):
    main(["ingest", "d1.xml"])
    assert main(["snapshot", "backup.snap"]) == 0
    assert main(["restore", "backup.snap"]) == 0
    capsys.readouterr()
    assert main(["get", "1#6"]) == 0
    assert capsys.readouterr().out.strip() == "<par>xml</par>"


def test_moved_snapshot_saves_where_the_config_points(workdir, capsys):
    # a copied snapshot still names the original file inside; the config
    # that points at the copy decides where the store is saved
    main(["ingest", "d1.xml"])
    moved = workdir / "moved.snap"
    moved.write_bytes((workdir / "demo.snap").read_bytes())
    (workdir / "moved.cfg").write_text(CONFIG.format(snap=moved), encoding="utf-8")
    original = (workdir / "demo.snap").read_bytes()
    capsys.readouterr()
    assert main(["ingest", "d1.xml", "--config", "moved.cfg"]) == 0
    assert "2#1 2#6" in capsys.readouterr().out
    assert (workdir / "demo.snap").read_bytes() == original
    assert main(["get", "2#1", "--config", "moved.cfg"]) == 0
    assert capsys.readouterr().out.strip() == D1
    assert main(["get", "2#1"]) == 1


def test_user_errors_exit_1(workdir, capsys):
    assert main(["get", "nope"]) == 1
    assert main(["query", "//sec[!"]) == 1
    assert main(["ingest", "missing.xml"]) == 1
    assert main(["query", "//*!"]) == 1
    (workdir / "latin1.xml").write_bytes(b"<doc>caf\xe9</doc>")
    assert main(["ingest", "latin1.xml"]) == 1
    (workdir / "bad.rq").write_text("SELECT ?q\n?x type Doc\n", encoding="utf-8")
    assert main(["rdf-query", "bad.rq"]) == 1
    assert main(["query", "//c in 0.." + "9" * 5000 + "!"]) == 1
    assert main(["query", '//par="x-y"!']) == 1
    assert main(["query", "//a" + "[/a" * 600 + "]" * 600 + "!"]) == 1
    (workdir / "bad.tsv").write_text("a\t\tb\n", encoding="utf-8")
    assert main(["rdf-load", "bad.tsv"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_namespaced_ingest_exit_1_and_store_still_loads(workdir, capsys):
    (workdir / "ns.xml").write_text(
        '<x:a xmlns:x="urn:u"><x:b>t</x:b></x:a>', encoding="utf-8"
    )
    assert main(["ingest", "ns.xml"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["stats"]) == 0
    assert main(["ingest", "d1.xml"]) == 0


@pytest.mark.parametrize("argv", [
    ["ingest", "."],
    ["rdf-load", "."],
    ["stats", "--config", "."],
])
def test_directory_path_exit_1(workdir, capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("overlays", ["0:hash", "300:hash", "-1:hash,1:range"])
def test_legacy_overlays_config_answers_range_queries(workdir, capsys, overlays):
    (workdir / "c.xml").write_text(
        "<r><c>2003</c><c>1999</c></r>", encoding="utf-8"
    )
    for cfg, line in (("plain.cfg", ""), ("legacy.cfg", f"overlays={overlays}\n")):
        text = CONFIG.format(snap=workdir / f"{cfg}.snap") + line
        (workdir / cfg).write_text(text, encoding="utf-8")
    answers = []
    for cfg in ("plain.cfg", "legacy.cfg"):
        assert main(["init", "--config", cfg]) == 0
        assert main(["ingest", "c.xml", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["query", "//c in 2000..2005!", "--config", cfg]) == 0
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1] == "1#2\t<c>2003</c>\n"


@pytest.mark.parametrize("backend", ["centralized", "p2p"])
def test_rdf_query_without_constant_exit_1(workdir, capsys, backend):
    cfg = workdir / "store.cfg"
    cfg.write_text(cfg.read_text().replace("backend=p2p", f"backend={backend}"))
    assert main(["init"]) == 0
    assert main(["rdf-load", "triples.tsv"]) == 0
    (workdir / "open.rq").write_text("SELECT ?s\n?s ?p ?o\n", encoding="utf-8")
    assert main(["rdf-query", "open.rq"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_exit_1(workdir, capsys):
    (workdir / "store.cfg").write_text("backend=weird\n", encoding="utf-8")
    assert main(["stats"]) == 1
    (workdir / "store.cfg").write_text("peer_count=many\n", encoding="utf-8")
    assert main(["stats"]) == 1


def test_internal_value_error_exit_2(workdir, capsys, monkeypatch):
    def fault(self, text):
        raise ValueError("unknown operator Bogus")

    monkeypatch.setattr(Store, "query", fault)
    assert main(["query", "//par!"]) == 2
    assert "internal error:" in capsys.readouterr().err


def test_corrupt_snapshot_exit_1(workdir, capsys):
    blob = (workdir / "demo.snap").read_bytes()
    (workdir / "demo.snap").write_bytes(blob[:-4])
    assert main(["stats"]) == 1
    assert "error:" in capsys.readouterr().err
    # a file in the retired version-1 format
    (workdir / "demo.snap").write_bytes(b"TWIGSNAP1\n" + blob[len(b"TWIGSNAP5\n") :])
    assert main(["stats"]) == 1
    assert "TWIGSNAP1" in capsys.readouterr().err
    # checksummed files whose records do not decode
    conf = (workdir / "store.cfg").read_bytes()

    def entry(text: bytes) -> bytes:
        return struct.pack(">QQ", 1, len(text)) + text

    bad_records = [
        [(b"CONF", conf), (b"DOC\x00", b"\x00\x01")],
        [(b"CONF", conf), (b"DOC\x00", entry(b"<a>caf\xe9</a>"))],
        [(b"CONF", conf), (b"DOC\x00", entry(b"<a/>")), (b"DOC\x00", entry(b"<z/>"))],
        [(b"CONF", conf), (b"TRPL", b"a\tb\t\xff")],
        [(b"CONF", conf), (b"NSTA", b"total 0 \xff")],
        [(b"CONF", conf), (b"NSTA", b"1 x 3 4\ntotal 3 4\n")],
        [(b"CONF", conf + b"\xff")],
    ]
    for records in bad_records:
        write_snapshot(workdir / "demo.snap",
                       [(tag, deflated(content)) for tag, content in records])
        assert main(["stats"]) == 1, records[-1]
        assert "error:" in capsys.readouterr().err


def test_query_and_stats_leave_a_retired_store_alone(workdir, capsys):
    # a store in a retired layout is refused, and the refusal saves
    # nothing: the file stays as it was for the documents to be re-ingested
    main(["ingest", "d1.xml"])
    main(["ingest", "d1.xml"])
    main(["rdf-load", "triples.tsv"])
    main(["query", "//par!"])
    snap = workdir / "demo.snap"
    current = snap.read_bytes()
    assert current.startswith(b"TWIGSNAP5\n")
    capsys.readouterr()
    # a TWIGSNAP3 file as that layout held the same store, and a forged
    # TWIGSNAP4 header on the current records
    for old in (plain_snapshot(current), b"TWIGSNAP4\n" + current[len(b"TWIGSNAP5\n") :]):
        snap.write_bytes(old)
        for argv in (["query", '//sec[/title="dht"]!'], ["stats"]):
            assert main(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert f"error: {old[:9].decode()} snapshots are no longer read" in err, argv
            assert snap.read_bytes() == old, argv


@pytest.mark.parametrize("argv", [["bogus"], ["get"], ["query", "//a!", "extra"]])
def test_usage_error_returns_1_with_usage_and_error_line(workdir, capsys, argv):
    # exit 2 is for internal faults, and main returns rather than exiting
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: store")
    assert err.splitlines()[-1].startswith("error: ")


def test_help_exits_0(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: store")


def test_importing_the_cli_loads_every_module_and_no_dataclasses():
    # the benchmark's tracer imports twigstore.cli, then patches the
    # twigstore modules it finds loaded; the records are plain classes, so
    # a cold start loads neither dataclasses nor the inspect module it
    # needs, and documents are parsed by expat itself, so no ElementTree
    package = Path(twigstore.__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    code = "import sys, twigstore.cli; print(*sys.modules)"
    loaded = set(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.split())
    modules = {f"twigstore.{path.stem}" for path in package.glob("*.py")} - {
        "twigstore.__init__"}
    assert "twigstore.store" in modules and modules <= loaded
    assert not {"dataclasses", "inspect", "xml.etree"} & loaded
