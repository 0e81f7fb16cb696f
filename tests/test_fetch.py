"""Fetcher behavior against a local stub HTTP server and local files."""

import json
import socket

from webbitext import (CandidatePair, FetchPolicy, Fetcher, PageCache,
                       dedup_identical, linearize)
from webbitext.fetch import (STATUS_EMPTY, STATUS_MOVED, STATUS_NON_HTML,
                             STATUS_NOT_FOUND, STATUS_OK,
                             STATUS_ROBOTS_DENIED, STATUS_UNREACHABLE,
                             sniff_content_type)

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
    assert result.digest and result.cache_path
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


def test_unreachable_server(tmp_path):
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    fetcher = make_fetcher(tmp_path, retries=0, timeout=2.0)
    result = fetcher.fetch("http://127.0.0.1:%d/x.html" % port)
    assert result.status == STATUS_UNREACHABLE


def test_content_type_sniffing_when_header_is_missing():
    assert sniff_content_type(b"  <!DOCTYPE html><html>") == "text/html"
    assert sniff_content_type(b"<HTML><BODY>") == "text/html"
    assert sniff_content_type(b"%PDF-1.4") == "application/pdf"
    assert sniff_content_type(b"just some text") == "application/octet-stream"


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


def test_dedup_identical_pairs(tmp_path):
    a = tmp_path / "a.html"
    b = tmp_path / "b.html"
    c = tmp_path / "c.html"
    a.write_text(HTML_BODY)
    b.write_text(HTML_BODY)          # byte-identical copy
    c.write_text(HTML_BODY + "  !")  # different
    fetcher = make_fetcher(tmp_path)
    urls = [str(a), str(b), str(c)]
    results = {u: fetcher.fetch(u) for u in urls}
    pairs = [
        CandidatePair(str(a), str(b)),   # identical content: dropped
        CandidatePair(str(a), str(c)),   # kept
        CandidatePair(str(a), str(c)),   # exact duplicate entry: dropped
        CandidatePair(str(a), str(a)),   # same locator twice: dropped
    ]
    kept = dedup_identical(pairs, results)
    assert [(p.url1, p.url2) for p in kept] == [(str(a), str(c))]


def test_cache_survives_restart(tmp_path):
    cache = PageCache(str(tmp_path / "cache"))
    digest, path = cache.store_body(b"<html>x</html>")
    from webbitext.fetch import FetchResult

    cache.record(FetchResult("u1", STATUS_OK, final_url="u1",
                             content_type="text/html", digest=digest,
                             cache_path=path, fetched_at=123.0))
    reloaded = PageCache(str(tmp_path / "cache"))
    hit = reloaded.lookup("u1")
    assert hit.digest == digest
    assert reloaded.body(digest) == b"<html>x</html>"
    assert reloaded.lookup("u1", max_age=1e-9) is None  # expired


def test_header_charset_is_kept_through_the_cache(stub_server, tmp_path):
    phrase = "日本語のテキストです"
    stub_server.add_page("/ja.html",
                         ("<HTML><BODY><P>%s</P></BODY></HTML>" % phrase)
                         .encode("shift_jis"),
                         "text/html; charset=Shift_JIS")
    url = stub_server.base_url + "/ja.html"
    fetched = make_fetcher(tmp_path).fetch(url)
    assert (fetched.content_type, fetched.charset) == ("text/html", "Shift_JIS")
    fetcher = make_fetcher(tmp_path)  # a new cache object: answers from index.json
    cached = fetcher.fetch(url)
    assert cached.charset == "Shift_JIS"
    body = fetcher.body(cached)
    chunk = [t for t in linearize(body, encoding=cached.charset).tokens
             if t.is_chunk()][0]
    assert (chunk.text, chunk.length) == (phrase, 10)
    mojibake = [t for t in linearize(body).tokens if t.is_chunk()][0]
    assert mojibake.length == 20


def test_index_entries_without_charset_still_load(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / "index.json").write_text(json.dumps({"u1": {
        "status": STATUS_OK, "final_url": "u1", "content_type": "text/html",
        "digest": "ab" * 32, "fetched_at": 1.0, "detail": ""}}))
    hit = PageCache(str(root)).lookup("u1")
    assert (hit.status, hit.charset) == (STATUS_OK, "")
