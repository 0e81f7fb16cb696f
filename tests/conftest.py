import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from webbitext import GeneratorConfig, linearize


def text_with_length(prefix, target):
    """Extend ``prefix`` with filler words to exactly ``target`` non-ws chars."""
    need = target - sum(1 for c in prefix if not c.isspace())
    assert need >= 0, "prefix already longer than target"
    parts = [prefix]
    while need > 0:
        k = min(8, need)
        parts.append("x" * k)
        need -= k
    return " ".join(parts)


def worked_example_docs():
    """The canonical English/French fragment pair used across tests.

    English: HTML, TITLE chunk (13 non-ws chars), BODY, an H1 block with no
    counterpart, then a 112-char body chunk.  French: same skeleton minus
    the H1 block, title chunk of 15, body chunk of 122.
    """
    en_html = (
        "<HTML><TITLE>Emergency Exit</TITLE><BODY><H1>Emergency Exit</H1>"
        + text_with_length("If seated at an exit and", 112)
    )
    fr_html = (
        "<HTML><TITLE>Sortie de Secours</TITLE><BODY>"
        + text_with_length("Si vous êtes assis à côté d'une", 122)
    )
    return (linearize(en_html, source_id="en-fragment"),
            linearize(fr_html, source_id="fr-fragment"))


@pytest.fixture
def worked_example():
    return worked_example_docs()


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        server = self.server
        with server.log_lock:
            server.request_log.append((time.monotonic(), self.path))
        route = server.routes.get(self.path.split("?")[0])
        if route is None:
            body = b"not here"
            self.send_response(404)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        code, headers, body = route
        self.send_response(code)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class StubServer:
    """Tiny local HTTP server with a scriptable route table and request log."""

    def __init__(self):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.httpd.routes = {}
        self.httpd.request_log = []
        self.httpd.log_lock = threading.Lock()
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def routes(self):
        return self.httpd.routes

    @property
    def request_log(self):
        return self.httpd.request_log

    @property
    def base_url(self):
        host, port = self.httpd.server_address
        return "http://%s:%d" % (host, port)

    def add_page(self, path, body, content_type="text/html", code=200):
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.routes[path] = (code, {"Content-Type": content_type}, body)

    def add_redirect(self, path, target, code=302):
        self.routes[path] = (code, {"Location": target}, b"")

    def paths_requested(self):
        with self.httpd.log_lock:
            return [p for _, p in self.request_log]

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


def serve_shift_jis_hub(server):
    """Serve a hub whose Japanese anchor decodes only with its header charset.

    Returns the hub URL.  Its one candidate pair is /en.html, /ja.html.
    """
    hub = '<A HREF="/en.html">English</A> <A HREF="/ja.html">日本語</A>'
    server.add_page("/hub.html", hub.encode("shift_jis"),
                    "text/html; charset=Shift_JIS")
    return server.base_url + "/hub.html"


JA_PHRASE = "日本語のテキストです"


def serve_english_japanese(server):
    """Two English/Japanese pairs that an en/ja run accepts; returns the hubs.

    Each Japanese page is Shift_JIS and names its charset in the header
    only, and its first paragraph is ``JA_PHRASE`` once.
    """
    hubs = []
    for i in (1, 2):
        en = "<HTML><TITLE>Page %d</TITLE><BODY>" % i
        ja = "<HTML><TITLE>ページ %d</TITLE><BODY>" % i
        for k in range(1, 7):
            en += "<P>%s</P>" % text_with_length("", 11 * k + i)
            ja += "<P>%s</P>" % (JA_PHRASE * k)
        server.add_page("/en%d.html" % i, en)
        # The charset is in the header only; the page declares none.
        server.add_page("/ja%d.html" % i, ja.encode("shift_jis"),
                        "text/html; charset=Shift_JIS")
        server.add_page("/hub%d.html" % i,
                        '<A HREF="/en%d.html">English</A> '
                        '<A HREF="/ja%d.html">Japanese</A>' % (i, i))
        hubs.append(server.base_url + "/hub%d.html" % i)
    return hubs


EN_JA = GeneratorConfig(frozenset({"english"}), frozenset({"japanese"}))


def tree_bytes(root):
    """Every file under ``root``, as {path relative to root: bytes}."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture(scope="session")
def demo_corpus(tmp_path_factory):
    from webbitext.democorpus import build_corpus

    root = tmp_path_factory.mktemp("corpus")
    return build_corpus(str(root))


@pytest.fixture(scope="session")
def lang_models(tmp_path_factory):
    from webbitext.democorpus import train_models

    out = tmp_path_factory.mktemp("models")
    return train_models(str(out))


def growth_ratio(run, make, n, factor=4):
    """Best-of-three time of ``run(make(factor * n))`` over ``run(make(n))``.

    Linear work gives about ``factor``, quadratic work about ``factor ** 2``.
    """
    def best(arg):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run(arg)
            times.append(time.perf_counter() - start)
        return min(times)

    return best(make(factor * n)) / best(make(n))
