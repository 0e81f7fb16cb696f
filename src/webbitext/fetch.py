"""Polite page retrieval into a content-addressed on-disk cache.

Every retrieved body is stored once under its SHA-256 digest with a
locator-to-digest index on the side, so reruns over the same candidate
set cost zero network requests and identical pages are detected by digest
equality.  Per-host courtesy: robots.txt is fetched and honored before
any page request to a host, and consecutive requests to one host are
separated by at least a configurable interval.  Failures never abort a
run; they map onto a small status taxonomy (not found, moved, empty,
unreachable, robots denied, non-HTML) that the pipeline records per pair.

Locators without a scheme (or with file://) are read from the local
filesystem through the same status taxonomy, which keeps corpus runs over
bundled fixtures free of any network dependence.
"""

from __future__ import annotations

import hashlib
import json
import mimetypes
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import urllib.robotparser
from collections import defaultdict
from dataclasses import dataclass

STATUS_OK = "ok"
STATUS_MOVED = "moved"
STATUS_NOT_FOUND = "not_found"
STATUS_EMPTY = "empty"
STATUS_UNREACHABLE = "unreachable"
STATUS_ROBOTS_DENIED = "robots_denied"
STATUS_NON_HTML = "non_html"

_REDIRECT_CODES = {301, 302, 303, 307, 308}


@dataclass
class FetchPolicy:
    user_agent: str = "webbitext/0.1"
    timeout: float = 30.0
    min_interval: float = 1.0
    max_redirects: int = 5
    retries: int = 1
    max_age: float | None = None  # cache entry lifetime; None = never expires


@dataclass
class FetchResult:
    url: str
    status: str
    final_url: str = ""
    content_type: str = ""
    charset: str = ""  # from the Content-Type header; "" when none was sent
    digest: str | None = None
    cache_path: str | None = None
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


def _charset_param(params):
    """The ``charset`` value among Content-Type parameters, or ""."""
    for param in params.split(";"):
        name, _, value = param.partition("=")
        if name.strip().lower() == "charset":
            return value.strip().strip("\"'")
    return ""


class PageCache:
    """Content-addressed body store plus a locator index.

    Bodies live under two-level digest-prefix directories; the index maps
    each locator to its last FetchResult.  Index commits are serialized
    and written atomically (temp file + rename).
    """

    def __init__(self, root):
        self.root = str(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.index_path = os.path.join(self.root, "index.json")
        os.makedirs(self.objects_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._index = {}
        if os.path.exists(self.index_path):
            with open(self.index_path, encoding="utf-8") as fh:
                self._index = json.load(fh)

    def body_path(self, digest):
        return os.path.join(self.objects_dir, digest[:2], digest)

    def store_body(self, body):
        digest = hashlib.sha256(body).hexdigest()
        path = self.body_path(digest)
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
            with open(tmp, "wb") as fh:
                fh.write(body)
            os.replace(tmp, path)
        return digest, path

    def body(self, digest):
        with open(self.body_path(digest), "rb") as fh:
            return fh.read()

    def record(self, result):
        entry = {
            "status": result.status,
            "final_url": result.final_url,
            "content_type": result.content_type,
            "charset": result.charset,
            "digest": result.digest,
            "fetched_at": result.fetched_at,
            "detail": result.detail,
        }
        with self._lock:
            self._index[result.url] = entry
            tmp = self.index_path + ".tmp.%d" % os.getpid()
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self._index, fh, sort_keys=True)
            os.replace(tmp, self.index_path)

    def lookup(self, url, max_age=None):
        with self._lock:
            entry = self._index.get(url)
        if entry is None:
            return None
        if max_age is not None and time.time() - entry["fetched_at"] > max_age:
            return None
        digest = entry["digest"]
        return FetchResult(
            url=url, status=entry["status"], final_url=entry["final_url"],
            content_type=entry["content_type"],
            charset=entry.get("charset", ""),  # absent in older indexes
            digest=digest,
            cache_path=self.body_path(digest) if digest else None,
            fetched_at=entry["fetched_at"], detail=entry["detail"])


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

    def _host_lock(self, host):
        with self._locks_guard:
            return self._host_locks[host]

    def _polite_request(self, url):
        """One rate-limited HTTP request; returns (code, headers, body).

        Requests to a host are serialized and spaced by min_interval,
        measured from the completion of the previous request, so observed
        inter-request gaps can never undercut the interval.
        """
        host = urllib.parse.urlsplit(url).netloc
        req = urllib.request.Request(
            url, headers={"User-Agent": self.policy.user_agent})
        with self._host_lock(host):
            wait = self._last_done.get(host, -1e9) + self.policy.min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                with self._opener.open(req, timeout=self.policy.timeout) as resp:
                    return resp.getcode(), dict(resp.headers), resp.read()
            except urllib.error.HTTPError as err:
                body = err.read() if err.fp else b""
                return err.code, dict(err.headers or {}), body
            finally:
                self._last_done[host] = time.monotonic()

    def _request_with_retry(self, url):
        last_err = None
        for _ in range(self.policy.retries + 1):
            try:
                return self._polite_request(url)
            except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as err:
                last_err = err
        raise last_err

    # -- robots -----------------------------------------------------------

    def _robots_allows(self, url):
        parts = urllib.parse.urlsplit(url)
        host = parts.netloc
        with self._locks_guard:
            lock = self._robots_locks[host]
        with lock:  # single flight: one robots.txt request per host
            if host not in self._robots:
                self._robots[host] = self._load_robots(parts.scheme, host)
            parser = self._robots[host]
        if parser is None:
            return True
        return parser.can_fetch(self.policy.user_agent, url)

    def _load_robots(self, scheme, host):
        robots_url = "%s://%s/robots.txt" % (scheme, host)
        try:
            code, _, body = self._request_with_retry(robots_url)
        except Exception:
            return None  # unavailable robots.txt: treat as permissive
        if code != 200:
            return None
        parser = urllib.robotparser.RobotFileParser()
        parser.parse(body.decode("utf-8", errors="replace").splitlines())
        return parser

    # -- fetching ---------------------------------------------------------

    def fetch(self, url):
        """Retrieve one locator, through the cache, honoring robots."""
        if is_local(url):
            return self._fetch_local(url)
        cached = self.cache.lookup(url, self.policy.max_age)
        if cached is not None:
            return cached
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
        if not body:
            return FetchResult(url, STATUS_EMPTY, final_url=url, fetched_at=now)
        ext = os.path.splitext(path)[1].lower()
        if ext in (".html", ".htm"):
            ctype = "text/html"
        else:
            ctype = mimetypes.guess_type(path)[0] or sniff_content_type(body)
        return self._finish(url, url, ctype, body, now)

    def _fetch_http(self, url):
        current = url
        now = time.time()
        for _ in range(self.policy.max_redirects + 1):
            if not self._robots_allows(current):
                return FetchResult(url, STATUS_ROBOTS_DENIED, final_url=current,
                                   fetched_at=now)
            try:
                code, headers, body = self._request_with_retry(current)
            except Exception as err:
                return FetchResult(url, STATUS_UNREACHABLE, final_url=current,
                                   fetched_at=now, detail=str(err))
            if code in _REDIRECT_CODES:
                location = headers.get("Location") or headers.get("location")
                if not location:
                    return FetchResult(url, STATUS_UNREACHABLE, final_url=current,
                                       fetched_at=now, detail="redirect without location")
                current = urllib.parse.urljoin(current, location)
                continue
            if code in (404, 410):
                return FetchResult(url, STATUS_NOT_FOUND, final_url=current,
                                   fetched_at=now)
            if code != 200:
                return FetchResult(url, STATUS_UNREACHABLE, final_url=current,
                                   fetched_at=now, detail="HTTP %d" % code)
            if not body:
                return FetchResult(url, STATUS_EMPTY, final_url=current, fetched_at=now)
            raw_ctype = headers.get("Content-Type") or headers.get("content-type")
            media_type, _, params = (raw_ctype or "").partition(";")
            ctype = media_type.strip().lower() if raw_ctype \
                else sniff_content_type(body)
            return self._finish(url, current, ctype, body, now,
                                _charset_param(params))
        return FetchResult(url, STATUS_UNREACHABLE, final_url=current,
                           fetched_at=now, detail="too many redirects")

    def _finish(self, url, final_url, ctype, body, now, charset=""):
        if "html" not in ctype:
            return FetchResult(url, STATUS_NON_HTML, final_url=final_url,
                               content_type=ctype, fetched_at=now, detail=ctype)
        digest, path = self.cache.store_body(body)
        status = STATUS_OK if final_url == url else STATUS_MOVED
        return FetchResult(url, status, final_url=final_url, content_type=ctype,
                           charset=charset, digest=digest, cache_path=path,
                           fetched_at=now)

    def body(self, result):
        if not result.retrieved:
            raise ValueError("no body for status %r" % result.status)
        return self.cache.body(result.digest)

    def fetch_many(self, urls, jobs=4):
        """Fetch unique locators concurrently; politeness stays per-host."""
        from concurrent.futures import ThreadPoolExecutor

        unique = list(dict.fromkeys(urls))
        if not unique:
            return {}
        jobs = max(1, min(jobs, len(unique)))
        if jobs == 1:
            return {u: self.fetch(u) for u in unique}
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(self.fetch, unique)
        return dict(zip(unique, results))


def dedup_identical(pairs, results):
    """Drop exact duplicate pair entries and pairs of byte-identical pages."""
    out = []
    seen = set()
    for pair in pairs:
        key = (pair.url1, pair.url2)
        if key in seen:
            continue
        seen.add(key)
        r1 = results.get(pair.url1)
        r2 = results.get(pair.url2)
        if (r1 is not None and r2 is not None
                and r1.digest and r2.digest and r1.digest == r2.digest):
            continue
        out.append(pair)
    return out
