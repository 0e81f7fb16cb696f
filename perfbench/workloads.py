"""Seeded input generation for the three benchmark workloads.

Every page is written by this module from word pools, so the benchmark
knows each chunk's non-whitespace length and each page's tag skeleton
without asking the program.  The seed decides words, lengths, block tags,
pair order, hub membership and host placement.  It does not decide the
size schedule (chunks per page, pairs per kind, anchors per hub): those
are fixed per workload, so the amount of work in a pass is nearly the
same for every seed and the spread between seeds stays small.

``build`` writes the pages and hubs under a directory and returns an
expectation record (``expect.json``) that the output checks read:
one entry per constructed pair with its kind, and for every kind whose
verdict rests on the length test, the generated length vectors.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("corpus-mix", "long-pages", "crawl-http")

LANG1_NAMES = ("english",)
LANG2_NAMES = ("spanish", "español")

# Words keyed by exact length, so a chunk of any length >= 1 can be hit
# exactly.  Common function and content words keep short pages easy for a
# character n-gram model to tell apart.
_EN = {
    1: ["a", "I"],
    2: ["of", "to", "in", "on", "at", "we", "it", "by", "is"],
    3: ["the", "and", "was", "for", "are", "you", "but", "all", "had"],
    4: ["with", "that", "from", "they", "have", "this", "were", "when"],
    5: ["house", "water", "night", "under", "three", "their", "where"],
    6: ["people", "garden", "window", "summer", "little", "always"],
    7: ["morning", "village", "evening", "weather", "teacher", "through"],
    8: ["children", "mountain", "together", "sunlight", "thinking"],
    9: ["beautiful", "wonderful", "yesterday", "neighbors"],
    10: ["everything", "friendship", "understand", "themselves"],
}
_ES = {
    1: ["y", "o", "a"],
    2: ["de", "la", "el", "en", "un", "se", "lo", "su"],
    3: ["los", "las", "una", "por", "con", "del", "que", "era"],
    4: ["casa", "agua", "vida", "cada", "bajo", "para", "como"],
    5: ["tarde", "noche", "campo", "viejo", "plaza", "calle", "todos"],
    6: ["pueblo", "verano", "tiempo", "cocina", "mañana", "camino"],
    7: ["ventana", "familia", "palabra", "caminos", "escuela"],
    8: ["historia", "escalera", "mercados", "montañas"],
    9: ["diferente", "primavera", "campesino", "caminaban"],
    10: ["septiembre", "biblioteca", "estaciones", "montañosas"],
}
POOLS = {"en": _EN, "es": _ES}

BLOCK_TAGS = ("P", "P", "P", "H2", "H3", "BLOCKQUOTE", "DIV")

# Kinds whose pages share one skeleton, so the verdict follows from the
# generated lengths alone.
LENGTH_KINDS = ("genuine", "uncorrelated", "anticorrelated", "same_language")

# Fixed make-up of each workload: (kind, count).  "redirect" is a genuine
# pair whose second locator answers with a redirect to the real page.
_MAKEUP = {
    "corpus-mix": [("genuine", 196), ("uncorrelated", 10),
                   ("anticorrelated", 10), ("alien", 12), ("identical", 2),
                   ("identical_copy", 2), ("missing", 3), ("empty", 2),
                   ("non_html", 3)],
    "long-pages": [("genuine", 10), ("alien", 2)],
    "crawl-http": [("genuine", 176), ("redirect", 8), ("same_language", 10),
                   ("alien", 10), ("uncorrelated", 8), ("robots", 10),
                   ("not_found", 8), ("non_html", 6), ("identical", 4)],
}
# Candidate pairs per hub.
_HUB_SIZES = {
    "corpus-mix": [3, 5, 8, 14, 25, 45, 140],
    "long-pages": [4, 8],
    "crawl-http": [5, 10, 15, 20, 30, 40, 50, 70],
}
# Warm (rerun) passes per round.  crawl-http's warm pass lasts about a
# third of its cold passes and varies more from process to process, so
# each round samples it three times.
RERUNS = {"corpus-mix": 1, "long-pages": 1, "crawl-http": 3}
# Chunks per page side: (smallest, largest), spread geometrically.
_CHUNKS = {
    "corpus-mix": (10, 300),
    "long-pages": (800, 2000),
    "crawl-http": (5, 30),
}

HOSTS = 4
DISALLOWED_PREFIX = "/private/"
ROBOTS_TXT = "User-agent: *\nDisallow: %s\n" % DISALLOWED_PREFIX
# Fixed expected disposition of the kinds that never reach the length test.
FIXED_DISPOSITION = {
    "identical": "identical", "identical_copy": "identical",
    "missing": "unretrievable", "empty": "unretrievable",
    "robots": "unretrievable", "not_found": "unretrievable",
    "non_html": "non_html", "alien": "rejected",
}
_PDF = b"%PDF-1.4\n1 0 obj\n<<>>\nendobj\ntrailer\n<<>>\n%%EOF\n"


def chunk_text(rng, pool, length):
    """Words from ``pool`` whose non-whitespace length is exactly ``length``."""
    words = []
    remaining = length
    while remaining > 10:
        word = rng.choice(pool[rng.randint(3, 8)])
        words.append(word)
        remaining -= len(word)
    words.append(rng.choice(pool[remaining]))
    return " ".join(words)


def _pearson(xs, ys):
    """Pearson r over the unequal pairs, pure Python (margin checks only)."""
    pts = [(x, y) for x, y in zip(xs, ys) if x != y]
    n = len(pts)
    if n < 3:
        return n, float("nan")
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    syy = sum((p[1] - my) ** 2 for p in pts)
    if sxx == 0 or syy == 0:
        return n, float("nan")
    return n, sxy / math.sqrt(sxx * syy)


def _lengths(rng, kind, count):
    """Length vectors with a wide margin around the decision boundary.

    Genuine pairs need r >= 0.95 over at least 5 unequal pairs (p < 0.013
    at the smallest n); uncorrelated pairs need |r| < 0.1 (p > 0.08 for
    every n up to 300); anti-correlated pairs need r <= -0.5.
    """
    while True:
        xs = [rng.randint(8, 160) for _ in range(count)]
        if kind in ("genuine", "same_language"):
            ys = [max(1, round(x * 1.12 * rng.uniform(0.93, 1.07))) for x in xs]
            n, r = _pearson(xs, ys)
            ok = n >= 5 and r >= 0.95
        elif kind == "uncorrelated":
            ys = [rng.randint(8, 160) for _ in range(count)]
            n, r = _pearson(xs, ys)
            ok = n >= 3 and abs(r) < 0.1
        else:  # anticorrelated
            ys = [max(1, round((170 - x) * rng.uniform(0.95, 1.05))) for x in xs]
            n, r = _pearson(xs, ys)
            ok = n >= 3 and r <= -0.5
        if ok:
            return xs, ys


def standard_page(rng, lang, lengths, tags):
    """TITLE chunk then one block element per further chunk."""
    pool = POOLS[lang]
    lines = ["<HTML>", "<HEAD>",
             "<TITLE>%s</TITLE>" % chunk_text(rng, pool, lengths[0]),
             "</HEAD>", "<BODY>"]
    for tag, length in zip(tags, lengths[1:]):
        lines.append("<%s>%s</%s>" % (tag, chunk_text(rng, pool, length), tag))
    lines.extend(["</BODY>", "</HTML>"])
    return "\n".join(lines) + "\n"


def standard_skeleton(tags):
    """(element label counts, chunk count) of a standard page."""
    counts = {"HTML": 1, "HEAD": 1, "TITLE": 1, "BODY": 1}
    for tag in tags:
        counts[tag] = counts.get(tag, 0) + 1
    return counts, len(tags) + 1


def table_page(rng, lang, lengths, rows):
    """A structurally alien layout: every chunk after the title in a cell."""
    pool = POOLS[lang]
    lines = ["<HTML>", "<HEAD>",
             "<TITLE>%s</TITLE>" % chunk_text(rng, pool, lengths[0]),
             "</HEAD>", "<BODY>", "<TABLE>"]
    cells = lengths[1:]
    per_row = -(-len(cells) // rows)
    for r in range(0, len(cells), per_row):
        row = cells[r:r + per_row]
        lines.append("<TR>" + "".join(
            "<TD>%s</TD>" % chunk_text(rng, pool, v) for v in row) + "</TR>")
    lines.extend(["</TABLE>", "</BODY>", "</HTML>"])
    return "\n".join(lines) + "\n"


def table_skeleton(cells, rows):
    per_row = -(-cells // rows)
    used_rows = -(-cells // per_row)
    counts = {"HTML": 1, "HEAD": 1, "TITLE": 1, "BODY": 1, "TABLE": 1,
              "TR": used_rows, "TD": cells}
    return counts, cells + 1


def skeleton_tokens(counts, chunks):
    """Token count of a page: a START and an END per element, plus chunks."""
    return 2 * sum(counts.values()) + chunks


def chunk_counts(workload):
    """The fixed chunks-per-side schedule, one entry per constructed pair."""
    total = sum(c for _, c in _MAKEUP[workload])
    lo, hi = _CHUNKS[workload]
    return [round(lo * (hi / lo) ** (i / (total - 1))) for i in range(total)]


def _anchor_lines(href1, href2, style):
    if style == "alt":
        return ['<A HREF="%s"><IMG SRC="uk.gif" ALT="English version"></A>' % href1,
                '<A HREF="%s"><IMG SRC="es.gif" ALT="Versión en español"></A>' % href2]
    return ['<A HREF="%s">English</A>' % href1,
            '<A HREF="%s">Español</A>' % href2]


def hub_page(rng, index, groups):
    """One hub: each anchor pair on adjacent lines, groups 12 lines apart.

    Anchors of neighbouring groups are more than the default 10 lines
    apart, so each hub yields exactly its constructed pairs.
    """
    lines = ["<HTML>", "<BODY>", "<H1>Hub %d</H1>" % index]
    for gi, (href1, href2) in enumerate(groups):
        if gi:
            lines.extend("<P>%s</P>" % chunk_text(rng, _EN, 20) for _ in range(11))
        lines.extend(_anchor_lines(href1, href2, "alt" if gi % 3 == 2 else "text"))
    lines.extend(["</BODY>", "</HTML>"])
    return "\n".join(lines) + "\n"


class _Site:
    """Where pages go and how hubs refer to them, local or over HTTP."""

    def __init__(self, root, ports):
        self.ports = ports
        self.docroot = os.path.join(root, "www" if ports else "site")

    def write(self, rel, content):
        path = os.path.join(self.docroot, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = content if isinstance(content, bytes) else content.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)

    def href(self, rel, host):
        """(href written in the hub, locator the pipeline will report)."""
        if self.ports:
            url = "http://127.0.0.1:%d/%s" % (self.ports[host], rel)
            return url, url
        return "../" + rel, os.path.normpath(os.path.join(self.docroot, rel))

    def hub_locator(self, rel, host):
        if self.ports:
            return "http://127.0.0.1:%d/%s" % (self.ports[host], rel)
        return os.path.join(self.docroot, rel)


def build(workload, seed, root, ports=None):
    """Write one workload's inputs under ``root``; returns the expectations."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    if (workload == "crawl-http") != bool(ports):
        raise ValueError("crawl-http needs server ports; local workloads none")
    rng = random.Random("%s/%d" % (workload, seed))
    site = _Site(root, ports)
    kinds = [k for k, c in _MAKEUP[workload] for _ in range(c)]
    sizes = chunk_counts(workload)
    order = list(range(len(kinds)))
    rng.shuffle(order)
    if ports:
        site.write("robots.txt", ROBOTS_TXT)

    pairs = []
    for slot, idx in enumerate(order):
        kind, chunks = kinds[idx], sizes[idx]
        name = "p%04d" % slot
        host1 = rng.randrange(HOSTS) if ports else 0
        host2 = (host1 + 1 + rng.randrange(HOSTS - 1)) % HOSTS if ports else 0
        tags = [rng.choice(BLOCK_TAGS) for _ in range(chunks - 1)]
        entry = {"kind": kind}
        rel1, rel2 = "pages/%s-en.html" % name, "pages/%s-es.html" % name
        link2 = rel2
        if kind in LENGTH_KINDS or kind == "redirect":
            xs, ys = _lengths(rng, "genuine" if kind == "redirect" else kind, chunks)
            lang2 = "en" if kind == "same_language" else "es"
            site.write(rel1, standard_page(rng, "en", xs, tags))
            site.write(rel2, standard_page(rng, lang2, ys, tags))
            entry.update(x=xs, y=ys)
            if kind == "redirect":
                entry["kind"] = "genuine"
                link2 = "moved/%s-es.html" % name
        elif kind == "alien":
            xs, _ = _lengths(rng, "genuine", chunks)
            cells = chunks - 1 + rng.randint(-2, 2)
            ys = [rng.randint(8, 160) for _ in range(cells + 1)]
            rows = 1 + cells // 6
            site.write(rel1, standard_page(rng, "en", xs, tags))
            site.write(rel2, table_page(rng, "es", ys, rows))
            entry["skeleton1"] = standard_skeleton(tags)
            entry["skeleton2"] = table_skeleton(cells, rows)
        elif kind in ("identical", "identical_copy"):
            xs, _ = _lengths(rng, "genuine", chunks)
            page = standard_page(rng, "en", xs, tags)
            site.write(rel1, page)
            if kind == "identical":
                rel2, host2 = rel1, host1
            else:
                site.write(rel2, page)
            link2 = rel2
        else:
            xs, _ = _lengths(rng, "genuine", chunks)
            site.write(rel1, standard_page(rng, "en", xs, tags))
            if kind == "empty":
                site.write(rel2, b"")
            elif kind == "non_html":
                rel2 = link2 = "pages/%s-es.pdf" % name
                site.write(rel2, _PDF)
            elif kind == "robots":
                rel2 = link2 = DISALLOWED_PREFIX.lstrip("/") + "%s-es.html" % name
                site.write(rel2, standard_page(rng, "es", xs, tags))
            # missing / not_found: the second page is never written
        href1, entry["url1"] = site.href(rel1, host1)
        href2, entry["url2"] = site.href(link2, host2)
        entry["href"] = (href1, href2)
        pairs.append(entry)

    hubs = []
    start = 0
    for h, size in enumerate(_HUB_SIZES[workload]):
        members = pairs[start:start + size]
        start += size
        rel = "hubs/hub%02d.html" % h
        host = h % HOSTS if ports else 0
        site.write(rel, hub_page(rng, h, [p.pop("href") for p in members]))
        hubs.append(site.hub_locator(rel, host))
    if start != len(pairs):
        raise AssertionError("hub sizes do not cover the pairs")

    expect = {
        "workload": workload,
        "seed": seed,
        "hubs": hubs,
        "langid_filter": workload == "crawl-http",
        "ports": list(ports or []),
        "pairs": pairs,
    }
    with open(os.path.join(root, "expect.json"), "w", encoding="utf-8") as fh:
        json.dump(expect, fh)
    return expect
