"""Set-up process: everything a run does before its first pass.

Usage: python3 bench_setup.py WORKLOAD SEED DIR

Imports webbitext, starts the HTTP server (crawl-http) and waits for its
port handshake, writes the seeded inputs and ``expect.json`` under DIR,
and trains the bundled en/es language models (crawl-http).  It then
prints one JSON line (``{"ready": ...}``) and keeps the server up until
its stdin is closed, when it stops the server, waits for it and exits.
The parent times set-up from starting this process to reading that line.
"""

import json
import os
import subprocess
import sys

import workloads


def _import_program():
    import webbitext

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(webbitext.__file__).startswith(src + os.sep):
        raise SystemExit("webbitext imported from %s, not from %s"
                         % (webbitext.__file__, src))
    return webbitext


def main():
    workload, seed, root = sys.argv[1], int(sys.argv[2]), os.path.abspath(sys.argv[3])
    _import_program()
    from webbitext.democorpus import train_models

    os.makedirs(root)
    server = None
    try:
        ports = None
        if workload == "crawl-http":
            docroot = os.path.join(root, "www")
            os.makedirs(docroot)
            server = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "bench_server.py"),
                 docroot, os.path.join(root, "server.log"), str(workloads.HOSTS)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            line = server.stdout.readline()
            if not line:
                raise SystemExit("HTTP server exited before its handshake")
            ports = json.loads(line)["ports"]
        workloads.build(workload, seed, root, ports)
        models = train_models(os.path.join(root, "models")) if ports else []
        print(json.dumps({"ready": {"dir": root, "models": models}}), flush=True)
        sys.stdin.read()
    finally:
        if server is not None:
            server.stdin.close()
            server.wait()


if __name__ == "__main__":
    main()
