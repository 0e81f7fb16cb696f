"""Polite page retrieval into a content-addressed on-disk cache.

Every retrieved body is stored once under its SHA-256 digest, which finds
it again, and every HTTP fetch result as one small entry file per locator,
so reruns cost zero network requests and identical pages are detected by
digest equality.  Per-host courtesy: robots.txt is fetched and honored
before any page request to a host, and consecutive requests to one host
are separated by at least a configurable interval.  Failures never abort
a run; they map onto a small status taxonomy (not found, moved, empty,
unreachable, robots denied, non-HTML) that the pipeline records per pair.

Locators without a scheme (or with file://) are read from the local
filesystem through the same status taxonomy, so corpus runs need no network.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import mimetypes
import os
import shutil
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import urllib.robotparser
from collections import defaultdict
from dataclasses import asdict, dataclass

STATUS_OK = "ok"
STATUS_MOVED = "moved"
STATUS_NOT_FOUND = "not_found"
STATUS_EMPTY = "empty"
STATUS_UNREACHABLE = "unreachable"
STATUS_ROBOTS_DENIED = "robots_denied"
STATUS_NON_HTML = "non_html"

_REDIRECT_CODES = {301, 302, 303, 307, 308}
_MAX_REDIRECTS = 5
_RETRIES = 1  # extra attempts after a request that raised
# Whatever in a page cache nothing has touched for this long is garbage,
# whoever wrote it: a verdict scope no run uses, or a dead writer's temp file.
IDLE_S = 30 * 24 * 3600


@dataclass
class FetchPolicy:
    user_agent: str = "webbitext/0.1"
    timeout: float = 30.0
    min_interval: float = 1.0


@dataclass
class FetchResult:
    url: str
    status: str
    final_url: str = ""
    content_type: str = ""
    charset: str = ""  # from the Content-Type header; "" when none was sent
    digest: str | None = None
    fetched_at: float = 0.0
    detail: str = ""

    @property
    def retrieved(self):
        """True when a body was stored (direct hit or followed redirect)."""
        return self.status in (STATUS_OK, STATUS_MOVED)


def is_local(url):
    return "://" not in url or url.startswith("file://")


def local_path(url):
    if url.startswith("file://"):
        return urllib.request.url2pathname(urllib.parse.urlsplit(url).path)
    return url


def sniff_content_type(body):
    head = body[:1024].lower()
    if b"<html" in head or b"<!doctype" in head:
        return "text/html"
    if body.startswith(b"%PDF"):
        return "application/pdf"
    return "application/octet-stream"


def write_atomic(path, data):
    """Write ``data`` (bytes) to ``path`` through a temp file and a rename.

    The temp file ``<path>.tmp.<host>.<pid>.<thread>`` is never shared by
    concurrent writers, and readers see the old file or the new one.  A
    write or rename that raises removes it; a process killed in between
    leaves it, which ``PageCache.use_scope`` removes from a cache once idle.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = "%s.tmp.%s.%d.%d" % (path, socket.gethostname(), os.getpid(),
                               threading.get_ident())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _charset_param(params):
    """The ``charset`` value among Content-Type parameters, or ""."""
    for param in params.split(";"):
        name, _, value = param.partition("=")
        if name.strip().lower() == "charset":
            return value.strip().strip("\"'")
    return ""


class PageCache:
    """Content-addressed body store plus one JSON entry file per locator.

    A body of SHA-256 ``d`` is ``objects/<d[:2]>/<d>``, the entry of a
    locator of SHA-256 ``h`` is ``index/<h[:2]>/<h>``, its ``FetchResult``
    as JSON, and the verdict of an evaluated pair is
    ``verdicts/<scope>/<key>``, where the caller's ``scope`` names what a
    run's verdicts depend on besides the pair and ``key`` names the pair.
    An entry that is missing or cannot be read is a miss.  Atomic writes
    keep concurrent runs' entries and leave a killed run's cache whole.
    Opening it only sets paths; ``use_scope`` removes what is long idle.
    """

    def __init__(self, root):
        self.root = str(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.index_path = os.path.join(self.root, "index")
        self.verdicts_dir = os.path.join(self.root, "verdicts")
        self.swept_path = os.path.join(self.root, "swept")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.index_path, exist_ok=True)

    def _load(self, path, make):
        """``make(**entry)`` of the JSON entry at ``path``, or None when it
        is missing or cannot be read (empty, torn or of another shape)."""
        try:
            with open(path, encoding="utf-8") as fh:
                return make(**json.load(fh))
        except (OSError, ValueError, TypeError):
            return None

    def _store(self, path, doc):
        write_atomic(path, json.dumps(doc, sort_keys=True,
                                      ensure_ascii=False).encode("utf-8"))

    def _entry_path(self, url):
        h = hashlib.sha256(url.encode("utf-8")).hexdigest()
        return os.path.join(self.index_path, h[:2], h)

    def body_path(self, digest):
        return os.path.join(self.objects_dir, digest[:2], digest)

    def body(self, digest):
        """The stored body of SHA-256 ``digest``.  Raises ValueError when
        the object's bytes do not hash to it (a torn or truncated write)."""
        with open(self.body_path(digest), "rb") as fh:
            body = fh.read()
        if hashlib.sha256(body).hexdigest() != digest:
            raise ValueError("cached body %s does not match its digest" % digest)
        return body

    def store_body(self, body):
        digest = hashlib.sha256(body).hexdigest()
        path = self.body_path(digest)
        if not os.path.exists(path):
            write_atomic(path, body)
        return digest

    def record(self, result):
        self._store(self._entry_path(result.url), asdict(result))

    def lookup(self, url):
        return self._load(self._entry_path(url), FetchResult)

    def verdict(self, scope, key):
        """The ``{"fields", "segments"}`` entry under ``key``, or None."""
        return self._load(os.path.join(self.verdicts_dir, scope, key),
                          lambda fields, segments: dict(fields=fields, segments=segments))

    def store_verdict(self, scope, key, entry):
        self._store(os.path.join(self.verdicts_dir, scope, key), entry)

    def use_scope(self, scope):
        """Refresh the directory of ``scope``, then remove what is idle past
        IDLE_S: other scopes, and when the ``swept`` stamp is missing or as
        old, temp files (a live write renames its own within seconds).  A
        removed entry is a miss; what cannot be removed is left as it is."""
        cutoff = time.time() - IDLE_S
        scope_dir = os.path.join(self.verdicts_dir, scope)
        with contextlib.suppress(OSError):
            os.makedirs(scope_dir, exist_ok=True)
            os.utime(scope_dir)
            for entry in os.scandir(self.verdicts_dir):
                with contextlib.suppress(OSError):  # removed by another run
                    if entry.stat().st_mtime >= cutoff:
                        continue
                    if entry.is_dir():
                        shutil.rmtree(entry.path)
                    else:  # an entry of the earlier flat layout
                        os.remove(entry.path)
        with contextlib.suppress(OSError):  # a missing stamp: never swept
            if os.stat(self.swept_path).st_mtime >= cutoff:
                return
        with contextlib.suppress(OSError):
            open(self.swept_path, "a").close()
            os.utime(self.swept_path)
            # Every file is <kind>/<bucket or scope>/<name>.
            for name in glob.glob(os.path.join("*", "*", "*.tmp.*"),
                                  root_dir=self.root):
                path = os.path.join(self.root, name)
                with contextlib.suppress(OSError):  # renamed or removed meanwhile
                    if os.stat(path).st_mtime < cutoff:
                        os.remove(path)


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class Fetcher:
    """Cached, robots-aware, rate-limited retrieval of candidate pages."""

    def __init__(self, cache, policy=None):
        self.cache = cache
        self.policy = policy or FetchPolicy()
        self._opener = urllib.request.build_opener(_NoRedirect)
        self._host_locks = defaultdict(threading.Lock)
        self._robots_locks = defaultdict(threading.Lock)
        self._locks_guard = threading.Lock()
        self._last_done = {}
        self._robots = {}

    # -- politeness -------------------------------------------------------

    def _lock(self, locks, host):
        with self._locks_guard:
            return locks[host]

    def _polite_request(self, url):
        """One rate-limited HTTP request; returns (code, headers, body).

        ``headers`` is the response's header message, whose lookups ignore
        case.  Requests to a host are serialized and spaced by min_interval,
        measured from the completion of the previous request, so observed
        inter-request gaps can never undercut the interval.
        """
        host = urllib.parse.urlsplit(url).netloc
        req = urllib.request.Request(
            url, headers={"User-Agent": self.policy.user_agent})
        with self._lock(self._host_locks, host):
            wait = self._last_done.get(host, -1e9) + self.policy.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                with self._opener.open(req, timeout=self.policy.timeout) as resp:
                    return resp.getcode(), resp.headers, resp.read()
            except urllib.error.HTTPError as err:
                body = err.read() if err.fp else b""
                return err.code, err.headers, body
            finally:
                self._last_done[host] = time.monotonic()

    def _request_with_retry(self, url):
        last_err = None
        for _ in range(_RETRIES + 1):
            try:
                return self._polite_request(url)
            except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as err:
                last_err = err
        raise last_err

    # -- robots -----------------------------------------------------------

    def _robots_allows(self, url):
        parts = urllib.parse.urlsplit(url)
        host = parts.netloc
        with self._lock(self._robots_locks, host):  # one robots.txt request
            if host not in self._robots:
                self._robots[host] = self._load_robots(parts.scheme, host)
        return self._robots[host].can_fetch(self.policy.user_agent, url)

    def _load_robots(self, scheme, host):
        """The host's robots.txt rules, as a parser.

        Follows redirects; a 5xx answer disallows the whole host (RFC 9309,
        2.3.1.2 and 2.3.1.4).  Any other non-200 answer, or none, allows all.
        """
        _, response, _ = self._follow("%s://%s/robots.txt" % (scheme, host),
                                      check_robots=False)
        code, _, body = response or (0, None, b"")  # no answer: code 0
        parser = urllib.robotparser.RobotFileParser()
        if code >= 500:
            parser.disallow_all = True
        elif code == 200:
            parser.parse(body.decode("utf-8", errors="replace").splitlines())
        else:
            parser.allow_all = True
        return parser

    # -- fetching ---------------------------------------------------------

    def fetch(self, url):
        """Retrieve one locator, through the cache, honoring robots."""
        if is_local(url):
            return self._fetch_local(url)
        result = self.cache.lookup(url)
        if result is None:
            result = self._fetch_http(url)
            self.cache.record(result)
        return result

    def _fetch_local(self, url):
        path = local_path(url)
        now = time.time()
        try:
            with open(path, "rb") as fh:
                body = fh.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return FetchResult(url, STATUS_NOT_FOUND, final_url=url, fetched_at=now)
        except OSError as err:
            return FetchResult(url, STATUS_UNREACHABLE, final_url=url,
                               fetched_at=now, detail=str(err))
        if os.path.splitext(path)[1].lower() in (".html", ".htm"):
            ctype = "text/html"
        else:
            ctype = mimetypes.guess_type(path)[0] or sniff_content_type(body)
        return self._finish(url, url, ctype, body, now)

    def _follow(self, url, check_robots=True):
        """GET ``url``, following up to _MAX_REDIRECTS redirects.

        Returns ``(final_url, response, failure)``.  ``response`` is the
        last answer's ``(code, headers, body)``; when the chain stops
        without one it is None and ``failure`` is the ``(status, detail)``.
        """
        current = url
        for _ in range(_MAX_REDIRECTS + 1):
            if check_robots and not self._robots_allows(current):
                return current, None, (STATUS_ROBOTS_DENIED, "")
            try:
                code, headers, body = self._request_with_retry(current)
            except Exception as err:
                return current, None, (STATUS_UNREACHABLE, str(err))
            if code not in _REDIRECT_CODES:
                return current, (code, headers, body), None
            location = headers.get("Location")
            if not location:
                return current, None, (STATUS_UNREACHABLE, "redirect without location")
            current = urllib.parse.urljoin(current, location)
        return current, None, (STATUS_UNREACHABLE, "too many redirects")

    def _fetch_http(self, url):
        now = time.time()
        current, response, failure = self._follow(url)
        code, headers, body = response or (None, None, None)
        if code in (404, 410):
            failure = (STATUS_NOT_FOUND, "")
        elif code not in (None, 200):
            failure = (STATUS_UNREACHABLE, "HTTP %d" % code)
        if failure:
            status, detail = failure
            return FetchResult(url, status, final_url=current, fetched_at=now,
                               detail=detail)
        raw_ctype = headers.get("Content-Type")
        media_type, _, params = (raw_ctype or "").partition(";")
        ctype = media_type.strip().lower() if raw_ctype \
            else sniff_content_type(body)
        return self._finish(url, current, ctype, body, now, _charset_param(params))

    def _finish(self, url, final_url, ctype, body, now, charset=""):
        if not body:
            return FetchResult(url, STATUS_EMPTY, final_url=final_url, fetched_at=now)
        if "html" not in ctype:
            return FetchResult(url, STATUS_NON_HTML, final_url=final_url,
                               content_type=ctype, fetched_at=now, detail=ctype)
        status = STATUS_OK if final_url == url else STATUS_MOVED
        return FetchResult(url, status, final_url=final_url, content_type=ctype,
                           charset=charset, digest=self.cache.store_body(body),
                           fetched_at=now)

    def body(self, result):
        if not result.retrieved:
            raise ValueError("no body for status %r" % result.status)
        return self.cache.body(result.digest)

    def fetch_many(self, urls, jobs):
        """Fetch unique locators concurrently; politeness stays per-host."""
        from concurrent.futures import ThreadPoolExecutor

        unique = list(dict.fromkeys(urls))
        with ThreadPoolExecutor(max_workers=max(1, min(jobs, len(unique)))) as pool:
            return dict(zip(unique, pool.map(self.fetch, unique)))
