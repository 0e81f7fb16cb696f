"""Local HTTP server for the crawl-http workload.

Usage: python3 bench_server.py DOCROOT LOGFILE HOSTS

Listens on HOSTS ports of 127.0.0.1 (each port is one host to the
fetcher) and serves files under DOCROOT from every port:

  /robots.txt        text/plain, the same rules on every host
  /moved/NAME        301 to /pages/NAME on the same host
  *.pdf              application/pdf
  *.html             text/html
  anything missing   404

Each request is appended to LOGFILE as ``port<TAB>path<TAB>code<TAB>bytes``
and flushed before the response is sent, so once a client has its
response the log already holds the line.  When every port listens the
server prints ``{"ports": [...]}`` on stdout (the start-up handshake).
It stops when its stdin is closed.
"""

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_TYPES = {".html": "text/html; charset=utf-8", ".pdf": "application/pdf",
          ".txt": "text/plain"}


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        path = self.path.split("?", 1)[0]
        headers = {}
        if path.startswith("/moved/"):
            code, body = 301, b""
            headers["Location"] = "/pages/" + path[len("/moved/"):]
        else:
            local = os.path.normpath(os.path.join(self.server.docroot, path.lstrip("/")))
            try:
                if not local.startswith(self.server.docroot + os.sep):
                    raise FileNotFoundError(path)
                with open(local, "rb") as fh:
                    body = fh.read()
                code = 200
                headers["Content-Type"] = _TYPES.get(
                    os.path.splitext(local)[1], "application/octet-stream")
            except (FileNotFoundError, IsADirectoryError):
                code, body = 404, b"not found"
        self.server.log_request_line(path, code, len(body))
        self.send_response(code)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, docroot, log):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.docroot = docroot
        self._log = log

    def log_request_line(self, path, code, size):
        self._log(self.server_address[1], path, code, size)


def main():
    docroot, log_path, hosts = os.path.abspath(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    lock = threading.Lock()
    with open(log_path, "a", encoding="utf-8") as log_fh:
        def log(port, path, code, size):
            with lock:
                log_fh.write("%d\t%s\t%d\t%d\n" % (port, path, code, size))
                log_fh.flush()

        servers = [_Server(docroot, log) for _ in range(hosts)]
        threads = [threading.Thread(target=s.serve_forever, args=(0.05,), daemon=True)
                   for s in servers]
        for t in threads:
            t.start()
        print(json.dumps({"ports": [s.server_address[1] for s in servers]}), flush=True)
        sys.stdin.read()  # returns when the parent closes our stdin
        for s in servers:
            s.shutdown()
            s.server_close()
        for t in threads:
            t.join()


if __name__ == "__main__":
    main()
