"""Fetcher behavior against a local stub HTTP server and local files."""

import dataclasses
import errno
import glob
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

import webbitext
from webbitext import (FetchPolicy, Fetcher, PageCache, PipelineConfig,
                       linearize, run_pipeline)
from webbitext.fetch import (IDLE_S, STATUS_EMPTY, STATUS_MOVED,
                             STATUS_NON_HTML, STATUS_NOT_FOUND, STATUS_OK,
                             STATUS_ROBOTS_DENIED, STATUS_UNREACHABLE,
                             FetchResult, sniff_content_type, write_atomic)
from webbitext.linearize import KIND_CHUNK

from conftest import EN_JA, serve_english_japanese, tree_bytes

HTML_BODY = "<HTML><BODY><P>hello from the stub</P></BODY></HTML>"


def make_fetcher(tmp_path, **policy_kwargs):
    policy_kwargs.setdefault("min_interval", 0.0)
    policy_kwargs.setdefault("timeout", 5.0)
    cache = PageCache(str(tmp_path / "cache"))
    return Fetcher(cache, FetchPolicy(**policy_kwargs))


def test_basic_ok_fetch_and_digest(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "User-agent: *\nAllow: /\n",
                         "text/plain")
    stub_server.add_page("/page.html", HTML_BODY)
    fetcher = make_fetcher(tmp_path)
    result = fetcher.fetch(stub_server.base_url + "/page.html")
    assert result.status == STATUS_OK
    assert result.digest
    assert fetcher.body(result).decode() == HTML_BODY
    assert result.content_type == "text/html"


def test_status_taxonomy(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "User-agent: *\nDisallow: /private/\n",
                         "text/plain")
    stub_server.add_page("/gone.html", "x", code=404)
    stub_server.add_page("/empty.html", "")
    stub_server.add_page("/doc.pdf", "%PDF-1.4 ...", "application/pdf")
    stub_server.add_page("/boom.html", "err", code=500)
    base = stub_server.base_url
    fetcher = make_fetcher(tmp_path)
    assert fetcher.fetch(base + "/gone.html").status == STATUS_NOT_FOUND
    assert fetcher.fetch(base + "/empty.html").status == STATUS_EMPTY
    pdf = fetcher.fetch(base + "/doc.pdf")
    assert pdf.status == STATUS_NON_HTML
    assert pdf.detail == "application/pdf"
    assert pdf.digest is None
    assert fetcher.fetch(base + "/boom.html").status == STATUS_UNREACHABLE
    assert fetcher.fetch(base + "/private/x.html").status == STATUS_ROBOTS_DENIED


def test_robots_denied_paths_are_never_requested(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "User-agent: *\nDisallow: /private/\n",
                         "text/plain")
    stub_server.add_page("/private/secret.html", HTML_BODY)
    stub_server.add_page("/open.html", HTML_BODY)
    base = stub_server.base_url
    fetcher = make_fetcher(tmp_path)
    denied = fetcher.fetch(base + "/private/secret.html")
    allowed = fetcher.fetch(base + "/open.html")
    assert denied.status == STATUS_ROBOTS_DENIED
    assert allowed.status == STATUS_OK
    requested = stub_server.paths_requested()
    assert "/private/secret.html" not in requested
    assert "/robots.txt" in requested and "/open.html" in requested


def test_robots_redirect_is_followed(stub_server, tmp_path):
    stub_server.add_redirect("/robots.txt", "/rules.txt")
    stub_server.add_page("/rules.txt", "User-agent: *\nDisallow: /private/\n",
                         "text/plain")
    stub_server.add_page("/private/x.html", HTML_BODY)
    result = make_fetcher(tmp_path).fetch(stub_server.base_url + "/private/x.html")
    assert result.status == STATUS_ROBOTS_DENIED
    requested = stub_server.paths_requested()
    assert "/rules.txt" in requested and "/private/x.html" not in requested


def test_robots_server_error_disallows_the_host(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "busy", "text/plain", code=503)
    stub_server.add_page("/page.html", HTML_BODY)
    result = make_fetcher(tmp_path).fetch(stub_server.base_url + "/page.html")
    assert result.status == STATUS_ROBOTS_DENIED
    assert "/page.html" not in stub_server.paths_requested()


def test_missing_robots_means_allowed(stub_server, tmp_path):
    stub_server.add_page("/page.html", HTML_BODY)
    fetcher = make_fetcher(tmp_path)
    assert fetcher.fetch(stub_server.base_url + "/page.html").status == STATUS_OK


def test_politeness_interval_is_respected(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "User-agent: *\nAllow: /\n",
                         "text/plain")
    for i in range(4):
        stub_server.add_page("/p%d.html" % i, HTML_BODY)
    base = stub_server.base_url
    interval = 0.25
    fetcher = make_fetcher(tmp_path, min_interval=interval)
    urls = [base + "/p%d.html" % i for i in range(4)]
    results = fetcher.fetch_many(urls, jobs=4)
    assert all(r.status == STATUS_OK for r in results.values())
    stamps = sorted(t for t, _ in stub_server.request_log)
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    assert len(stamps) == 5  # robots.txt plus four pages
    assert all(gap >= interval for gap in gaps), gaps


def test_cache_idempotence_zero_network_on_second_fetch(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "User-agent: *\nAllow: /\n",
                         "text/plain")
    stub_server.add_page("/page.html", HTML_BODY)
    url = stub_server.base_url + "/page.html"
    fetcher = make_fetcher(tmp_path)
    first = fetcher.fetch(url)
    count_after_first = len(stub_server.request_log)
    second = fetcher.fetch(url)
    assert len(stub_server.request_log) == count_after_first
    assert second.digest == first.digest
    # a brand-new fetcher over the same cache directory also stays offline
    other = make_fetcher(tmp_path)
    third = other.fetch(url)
    assert len(stub_server.request_log) == count_after_first
    assert third.digest == first.digest


def test_redirects_are_followed_and_reported_as_moved(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "User-agent: *\nAllow: /\n",
                         "text/plain")
    stub_server.add_redirect("/start.html", "/hop.html")
    stub_server.add_redirect("/hop.html", "/final.html")
    stub_server.add_page("/final.html", HTML_BODY)
    base = stub_server.base_url
    fetcher = make_fetcher(tmp_path)
    result = fetcher.fetch(base + "/start.html")
    assert result.status == STATUS_MOVED
    assert result.final_url == base + "/final.html"
    assert result.digest is not None
    assert fetcher.body(result).decode() == HTML_BODY


def test_redirect_limit(stub_server, tmp_path):
    stub_server.add_page("/robots.txt", "User-agent: *\nAllow: /\n",
                         "text/plain")
    for i in range(8):
        stub_server.add_redirect("/r%d" % i, "/r%d" % (i + 1))
    fetcher = make_fetcher(tmp_path)
    result = fetcher.fetch(stub_server.base_url + "/r0")
    assert result.status == STATUS_UNREACHABLE
    assert "redirect" in result.detail


def test_redirect_without_location_is_unreachable(stub_server, tmp_path):
    stub_server.routes["/nowhere.html"] = (302, {}, b"")
    fetcher = make_fetcher(tmp_path)
    result = fetcher.fetch(stub_server.base_url + "/nowhere.html")
    assert result.status == STATUS_UNREACHABLE
    assert result.detail == "redirect without location"


def test_body_of_a_result_without_one_raises(stub_server, tmp_path):
    fetcher = make_fetcher(tmp_path)
    result = fetcher.fetch(stub_server.base_url + "/gone.html")
    assert result.status == STATUS_NOT_FOUND
    with pytest.raises(ValueError, match="no body for status 'not_found'"):
        fetcher.body(result)


def test_unreachable_server(tmp_path):
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    fetcher = make_fetcher(tmp_path, timeout=2.0)
    result = fetcher.fetch("http://127.0.0.1:%d/x.html" % port)
    assert result.status == STATUS_UNREACHABLE


def test_content_type_sniffing_when_header_is_missing():
    assert sniff_content_type(b"  <!DOCTYPE html><html>") == "text/html"
    assert sniff_content_type(b"<HTML><BODY>") == "text/html"
    assert sniff_content_type(b"%PDF-1.4") == "application/pdf"
    assert sniff_content_type(b"just some text") == "application/octet-stream"


def test_page_served_without_content_type_is_sniffed(stub_server, tmp_path):
    stub_server.routes["/page"] = (200, {}, HTML_BODY.encode())
    stub_server.routes["/doc"] = (200, {}, b"%PDF-1.4 stuff")
    fetcher = make_fetcher(tmp_path)
    page = fetcher.fetch(stub_server.base_url + "/page")
    assert (page.status, page.content_type) == (STATUS_OK, "text/html")
    doc = fetcher.fetch(stub_server.base_url + "/doc")
    assert (doc.status, doc.detail) == (STATUS_NON_HTML, "application/pdf")


def test_unreadable_local_page_is_unreachable_with_the_os_message(tmp_path):
    loop = tmp_path / "loop.html"
    loop.symlink_to(loop)  # a symlink to itself: opening it fails with ELOOP
    with pytest.raises(OSError) as raised:
        open(loop, "rb")
    assert raised.value.errno == errno.ELOOP
    result = make_fetcher(tmp_path).fetch(str(loop))
    assert (result.status, result.detail) == (STATUS_UNREACHABLE, str(raised.value))


def test_local_file_fetch(tmp_path):
    page = tmp_path / "page.html"
    page.write_text(HTML_BODY)
    empty = tmp_path / "empty.html"
    empty.write_text("")
    pdf = tmp_path / "doc.pdf"
    pdf.write_bytes(b"%PDF-1.4 stuff")
    fetcher = make_fetcher(tmp_path)
    ok = fetcher.fetch(str(page))
    assert ok.status == STATUS_OK and ok.digest
    assert fetcher.body(ok).decode() == HTML_BODY
    assert fetcher.fetch(str(tmp_path / "nope.html")).status == STATUS_NOT_FOUND
    assert fetcher.fetch(str(empty)).status == STATUS_EMPTY
    assert fetcher.fetch(str(pdf)).status == STATUS_NON_HTML
    assert fetcher.fetch("file://" + str(page)).status == STATUS_OK


def test_cache_survives_restart(tmp_path):
    cache = PageCache(str(tmp_path / "cache"))
    digest = cache.store_body(b"<html>x</html>")
    cache.record(FetchResult("u1", STATUS_OK, final_url="u1",
                             content_type="text/html", digest=digest,
                             fetched_at=123.0))
    reloaded = PageCache(str(tmp_path / "cache"))
    hit = reloaded.lookup("u1")
    assert hit.digest == digest
    with open(reloaded.body_path(hit.digest), "rb") as fh:
        assert fh.read() == b"<html>x</html>"


def test_header_charset_is_kept_through_the_cache(stub_server, tmp_path):
    phrase = "日本語のテキストです"
    stub_server.add_page("/ja.html",
                         ("<HTML><BODY><P>%s</P></BODY></HTML>" % phrase)
                         .encode("shift_jis"),
                         "text/html; charset=Shift_JIS")
    url = stub_server.base_url + "/ja.html"
    fetched = make_fetcher(tmp_path).fetch(url)
    assert (fetched.content_type, fetched.charset) == ("text/html", "Shift_JIS")
    fetcher = make_fetcher(tmp_path)  # a new cache object: answers from disk
    cached = fetcher.fetch(url)
    assert cached.charset == "Shift_JIS"
    body = fetcher.body(cached)
    chunk = [t for t in linearize(body, encoding=cached.charset).tokens
             if t.kind == KIND_CHUNK][0]
    assert (chunk.text, chunk.length) == (phrase, 10)
    mojibake = [t for t in linearize(body).tokens if t.kind == KIND_CHUNK][0]
    assert mojibake.length == 20


@pytest.mark.parametrize("name", ["Content-type", "CONTENT-TYPE", "content-type"])
def test_content_type_header_name_in_any_case(stub_server, tmp_path, name):
    # "Content-type" is the spelling Python's own http.server sends.
    phrase = "日本語のテキストです"
    body = ("<HTML><BODY><P>%s</P></BODY></HTML>" % phrase).encode("shift_jis")
    stub_server.routes["/ja.html"] = (
        200, {name: "text/html; charset=Shift_JIS"}, body)
    fetcher = make_fetcher(tmp_path)
    result = fetcher.fetch(stub_server.base_url + "/ja.html")
    assert (result.content_type, result.charset) == ("text/html", "Shift_JIS")
    chunk = [t for t in linearize(fetcher.body(result), encoding=result.charset)
             .tokens if t.kind == KIND_CHUNK][0]
    assert (chunk.text, chunk.length) == (phrase, 10)


def test_location_header_name_in_any_case(stub_server, tmp_path):
    stub_server.routes["/old.html"] = (301, {"LOCATION": "/new.html"}, b"")
    stub_server.add_page("/new.html", HTML_BODY)
    base = stub_server.base_url
    result = make_fetcher(tmp_path).fetch(base + "/old.html")
    assert (result.status, result.final_url) == (STATUS_MOVED, base + "/new.html")


def test_caches_sharing_a_root_keep_each_others_entries(tmp_path):
    root = str(tmp_path / "cache")
    first, second = PageCache(root), PageCache(root)
    first.record(FetchResult("u1", STATUS_NOT_FOUND, final_url="u1"))
    second.record(FetchResult("u2", STATUS_NOT_FOUND, final_url="u2"))
    first.store_verdict("scope", "k1", {"fields": {"n": 1}, "segments": None})
    second.store_verdict("scope", "k2", {"fields": {"n": 2}, "segments": "té"})
    fresh = PageCache(root)
    assert fresh.lookup("u1").final_url == "u1"
    assert fresh.lookup("u2").final_url == "u2"
    assert fresh.verdict("scope", "k1") == {"fields": {"n": 1}, "segments": None}
    assert fresh.verdict("scope", "k2") == {"fields": {"n": 2}, "segments": "té"}


def test_entries_load_in_either_json_form(tmp_path):
    cache = PageCache(str(tmp_path / "cache"))
    result = FetchResult("http://h/été", STATUS_UNREACHABLE, detail="délai")
    cache.record(result)
    path = cache._entry_path(result.url)
    with open(path, "rb") as fh:
        assert "délai".encode("utf-8") in fh.read()
    with open(path, "w", encoding="ascii") as fh:  # \u escapes, as once written
        json.dump(dataclasses.asdict(result), fh, sort_keys=True)
    assert cache.lookup(result.url) == result


def _outputs(out):
    """Every file a run wrote to ``out`` but run_info.json, and its verdicts."""
    files = tree_bytes(out)
    return files, json.loads(files.pop("run_info.json"))["verdicts"]


def test_unreadable_entries_are_misses_that_are_written_again(stub_server,
                                                              tmp_path):
    hubs = serve_english_japanese(stub_server)

    def run(name, cache):
        run_pipeline(PipelineConfig(
            generator=EN_JA, fetch=FetchPolicy(min_interval=0.0, timeout=5.0),
            out_dir=str(tmp_path / name), cache_dir=str(tmp_path / cache),
            jobs=1), hubs)
        return _outputs(tmp_path / name)

    run("first", "cache")
    cache = PageCache(str(tmp_path / "cache"))
    base = stub_server.base_url
    empty, torn = base + "/en1.html", base + "/ja2.html"
    with open(cache._entry_path(empty), "wb"):  # as a lost write leaves it
        pass
    with open(cache._entry_path(torn), "r+b") as fh:
        fh.truncate(len(fh.read()) // 2)
    verdict = min(os.path.join(d, n) for d, _, names
                  in os.walk(cache.verdicts_dir) for n in names)
    with open(verdict, "wb") as fh:
        fh.write(b"not json")
    requested = len(stub_server.request_log)
    rerun = run("rerun", "cache")
    assert sorted(stub_server.paths_requested()[requested:]) == \
        ["/en1.html", "/ja2.html", "/robots.txt"]
    assert [cache.lookup(url).status for url in (empty, torn)] == [STATUS_OK] * 2
    with open(verdict, encoding="utf-8") as fh:
        assert json.load(fh)["fields"]["disposition"] == "accepted"
    assert rerun[1] == {"reused": 1, "evaluated": 1}
    assert rerun[0] == run("fresh", "fresh-cache")[0]


_RECORD_FOREVER = r"""
import sys
from webbitext import PageCache
from webbitext.fetch import FetchResult

cache = PageCache(sys.argv[1])
i = 0
while True:
    cache.record(FetchResult("u%d" % i, "ok", final_url="u%d" % i,
                             detail="x" * 20000))
    i += 1
"""


def _entry_files(root):
    for dirpath, _, names in os.walk(os.path.join(root, "index")):
        for name in names:
            if re.fullmatch("[0-9a-f]{64}", name):  # not a temp file
                yield os.path.join(dirpath, name)


def test_cache_killed_mid_record_still_loads(tmp_path):
    root = str(tmp_path / "cache")
    package_parent = os.path.dirname(os.path.dirname(webbitext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    proc = subprocess.Popen([sys.executable, "-c", _RECORD_FOREVER, root], env=env)
    try:
        deadline = time.monotonic() + 60
        while sum(1 for _ in _entry_files(root)) < 200:
            assert proc.poll() is None, "recorder exited early"
            assert time.monotonic() < deadline, "recorder too slow"
            time.sleep(0.05)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    # Temp files of the dead recorder, of this process and of another host,
    # in objects/, index/ and a verdict scope directory: opening the cache
    # removes none, and its next use_scope removes each one idle past
    # IDLE_S, whoever wrote it, and keeps the young one.
    host = socket.gethostname()
    planted = []
    for top, writer, pid in [("objects/ab", host, proc.pid),
                             ("index/ab", host, proc.pid),
                             ("verdicts/ab", host, proc.pid),
                             ("index/ab", host, os.getpid()),
                             ("index/ab", "x" + host, proc.pid),
                             ("verdicts/ab", host, os.getpid())]:
        os.makedirs(os.path.join(root, top), exist_ok=True)
        path = os.path.join(root, top, "ab%d.tmp.%s.%d.1"
                            % (len(planted), writer, pid))
        open(path, "wb").close()
        planted.append(path)
    young = planted[-1]

    def temp_files():
        return sorted(os.path.join(d, n) for d, _, names in os.walk(root)
                      for n in names if ".tmp." in n)

    idle = time.time() - IDLE_S - 60
    for path in temp_files():  # the recorder's own too, if it left one
        if path != young:
            os.utime(path, (idle, idle))
    left = temp_files()
    cache = PageCache(root)
    assert temp_files() == left
    cache.use_scope("ab")
    assert temp_files() == [young]
    found = list(_entry_files(root))
    assert len(found) >= 200
    for path in found:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        assert cache.lookup(entry["url"]).detail == "x" * 20000


def test_a_fresh_sweep_stamp_keeps_the_cache_from_being_listed(
        tmp_path, monkeypatch):
    root = str(tmp_path / "cache")
    PageCache(root).use_scope("s")  # the first use sweeps and stamps
    listed = []

    def spy(module, name):
        real = getattr(module, name)

        def listing(*args, **kwargs):
            listed.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, listing)

    for module, name in [(glob, "glob"), (os, "scandir"), (os, "listdir"),
                         (os, "walk")]:
        spy(module, name)
    cache = PageCache(root)
    assert listed == []  # opening lists no directory
    cache.use_scope("s")
    assert "glob" not in listed
    stale = time.time() - IDLE_S - 60
    os.utime(cache.swept_path, (stale, stale))
    listed.clear()
    cache.use_scope("s")
    assert listed.count("glob") == 1
    assert os.stat(cache.swept_path).st_mtime > stale


def test_write_atomic_leaves_no_temp_file_when_it_fails(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write_atomic(str(target), b"body")  # rename onto a directory
    with pytest.raises(TypeError):
        write_atomic(str(tmp_path / "text"), "not bytes")  # the write raises
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert os.listdir(target) == []
