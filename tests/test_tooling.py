"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "webbitext")


def _sources():
    """(path under the package, parsed module) of every package source."""
    for dirpath, _, names in os.walk(SRC):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                yield os.path.relpath(path, SRC), ast.parse(fh.read(), filename=path)


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert, so an invariant checked with one goes
    # unchecked there; the package raises instead.
    found = ["%s:%d" % (name, node.lineno) for name, tree in _sources()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _swallows(handler):
    """True for an ``except`` of Exception, BaseException or anything that
    neither re-raises nor reads the exception it binds."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    broad = any(t is None or (isinstance(t, ast.Name)
                              and t.id in ("Exception", "BaseException"))
                for t in types)
    inner = [n for stmt in handler.body for n in ast.walk(stmt)]
    reraises = any(isinstance(n, ast.Raise) for n in inner)
    reads = any(isinstance(n, ast.Name) and n.id == handler.name
                and isinstance(n.ctx, ast.Load) for n in inner)
    return broad and not reraises and not reads


def test_broad_exception_handlers_keep_their_error():
    # A broad handler that drops its exception hides any defect behind it.
    found = ["%s:%d" % (name, node.lineno) for name, tree in _sources()
             for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and _swallows(node)]
    assert found == []


def test_only_write_atomic_renames_files():
    # One atomic writer: every temp-file-plus-rename goes through it.
    found = []
    for name, tree in _sources():
        allowed = set()
        if name == "fetch.py":
            writer, = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                       and f.name == "write_atomic"]
            allowed = set(ast.walk(writer))
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("replace", "rename")
                  and isinstance(node.value, ast.Name) and node.value.id == "os"
                  and node not in allowed]
    assert found == []


def test_evaluation_jobs_write_nothing():
    # A job only computes its pair's entry; the run stores it and writes
    # the segments file, so no job's write ever has to be undone.
    tree = dict(_sources())["pipeline.py"]
    job, = [f for f in tree.body if isinstance(f, ast.FunctionDef)
            and f.name == "_evaluate_job"]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(job)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert names.isdisjoint({"write_atomic", "store_verdict"})


def test_a_local_fetch_writes_nothing():
    # A local page is read in place whenever its body is needed, so its
    # fetch takes the digest and copies nothing into the cache: neither
    # _fetch_local nor any Fetcher method it names names a writer.
    tree = dict(_sources())["fetch.py"]
    fetcher, = [c for c in tree.body if isinstance(c, ast.ClassDef)
                and c.name == "Fetcher"]
    methods = {f.name: f for f in fetcher.body if isinstance(f, ast.FunctionDef)}
    names, todo = set(), ["_fetch_local"]
    while todo:
        method = methods[todo.pop()]
        found = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(method)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        todo += [n for n in found - names if n in methods]
        names |= found
    assert "_finish" in names
    assert names.isdisjoint({"write_atomic", "store_body"})


def test_a_hub_is_read_only_through_the_fetcher():
    # Local and web hubs take one path, the Fetcher's, so they fail alike:
    # read_hub has no branch of its own for local files.
    tree = dict(_sources())["pipeline.py"]
    reader, = [f for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name == "read_hub"]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(reader)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert {"fetch", "body"} <= names
    assert names.isdisjoint({"is_local", "local_path"})


def test_importing_the_package_loads_no_process_pool_module():
    # Set-up imports the package, and the pools import these lazily, so a
    # module-level import of them would cost every run, pool or not.
    code = ("import sys, webbitext; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
