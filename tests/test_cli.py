import struct

import pytest

from twigstore.cli import main
from twigstore.overlay import fnv1a64
from twigstore.store import Store

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"

CONFIG = """backend=p2p
peer_count=4
overlays=0:hash,1:range
resource_granularity=par
snapshot_path={snap}
seed=3
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
    (workdir / "bad.tsv").write_text("a\t\tb\n", encoding="utf-8")
    assert main(["rdf-load", "bad.tsv"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


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
    # a well-formed file in the retired version-1 format
    body = b"TWIGSNAP1\n" + blob[len(b"TWIGSNAP2\n") : -8]
    (workdir / "demo.snap").write_bytes(body + struct.pack(">Q", fnv1a64(body)))
    assert main(["stats"]) == 1
    assert "TWIGSNAP1" in capsys.readouterr().err
    # checksummed files whose records do not decode
    conf = (workdir / "store.cfg").read_bytes()
    doc_id = struct.pack(">Q", 1)
    bad_records = [
        [(b"CONF", conf), (b"DOC\x00", b"\x00\x01")],
        [(b"CONF", conf), (b"DOC\x00", doc_id + b"<a>caf\xe9</a>")],
        [(b"CONF", conf), (b"DOC\x00", doc_id + b"<a/>"), (b"DOC\x00", doc_id + b"<z/>")],
        [(b"CONF", conf), (b"TRPL", b"a\tb\t\xff")],
        [(b"CONF", conf), (b"NSTA", b"total 0 \xff")],
        [(b"CONF", conf + b"\xff")],
    ]
    for records in bad_records:
        body = b"TWIGSNAP2\n" + b"".join(
            tag + struct.pack(">Q", len(payload)) + payload for tag, payload in records
        )
        (workdir / "demo.snap").write_bytes(body + struct.pack(">Q", fnv1a64(body)))
        assert main(["stats"]) == 1, records[-1]
        assert "error:" in capsys.readouterr().err
