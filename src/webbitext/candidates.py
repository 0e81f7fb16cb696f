"""Candidate pair generation from hub pages.

A hub is any page that links to multiple language versions of some
content.  Hubs are found with a search query of the form
``anchor:"language1" AND anchor:"language2"``; that search engine no
longer exists, so hubs come from a prepared list.  Every hub is scanned
for anchor pairs where one anchor mentions language 1, the other
mentions language 2, and the two anchors sit no more than a configured
number of source lines apart (default 10).  A language "mention" is a
case-insensitive substring hit on the anchor's href, its visible text,
or the ALT text of any image it contains, which is what catches
flag-image links and names buried in file names like french.gif.
"""

from __future__ import annotations

import html
import os
import urllib.parse
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from . import htmlscan
from .fetch import is_local, is_web
from .linearize import decode_html


@dataclass(frozen=True)
class CandidatePair:
    """Two locators hypothesized to be mutual translations."""

    url1: str
    url2: str
    source_hub: str = ""
    line_distance: int | None = None

    def key(self):
        return "%s %s" % (self.url1, self.url2)


@dataclass
class GeneratorConfig:
    lang1_names: frozenset
    lang2_names: frozenset
    max_line_distance: int = 10
    max_hits: int = 200

    def __post_init__(self):
        self.lang1_names = frozenset(s.casefold() for s in self.lang1_names)
        self.lang2_names = frozenset(s.casefold() for s in self.lang2_names)
        if not self.lang1_names or not self.lang2_names:
            raise ValueError("language name sets must be non-empty")
        if self.max_line_distance < 0 or self.max_hits < 0:
            raise ValueError("max_line_distance and max_hits must be >= 0")


@dataclass
class Anchor:
    """A hyperlink as seen in hub source: target, clickable surface, line."""

    href: str | None
    text: str = ""
    alts: list = field(default_factory=list)
    line: int = 1


def build_query(lang1, lang2):
    """Search query locating pages with anchors naming both languages."""
    if not lang1 or not lang2:
        raise ValueError("language names must be non-empty")
    return 'anchor:"%s" AND anchor:"%s"' % (lang1, lang2)


# An href loses the C0 controls and spaces at its ends and every tab and line
# break, as in the URL Standard's parser; an href left empty is missing.
_C0_OR_SPACE = "".join(map(chr, range(0x21)))
_TAB_OR_NEWLINE = dict.fromkeys(map(ord, "\t\n\r"))


def parse_anchors(text):
    """Extract anchors (href, inner text, inner ALT texts, source line)."""
    anchors = []
    texts = []  # per anchor, its unescaped text pieces, joined at the end
    open_anchor = None
    line, counted = 1, 0  # ``line`` is the line number of offset ``counted``
    for ev in htmlscan.scan(text):
        if ev.kind == htmlscan.START and ev.name == "A":
            line += text.count("\n", counted, ev.offset)
            counted = ev.offset
            href = (ev.attrs.get("href") or "").strip(_C0_OR_SPACE)
            open_anchor = Anchor(href=href.translate(_TAB_OR_NEWLINE) or None,
                                 line=line)
            anchors.append(open_anchor)
            texts.append([])
        elif open_anchor is not None:
            if ev.kind == htmlscan.TEXT:
                texts[-1].append(html.unescape(ev.text))
            elif ev.kind == htmlscan.START and ev.name == "IMG":
                alt = ev.attrs.get("alt")
                if alt:
                    open_anchor.alts.append(alt)
            elif ev.kind == htmlscan.END and ev.name == "A":
                open_anchor = None
    for anchor, pieces in zip(anchors, texts):
        anchor.text = "".join(pieces)
    return anchors


def anchor_matches(anchor, names):
    """True iff any name occurs (case-insensitively) in href, text, or ALT."""
    fields = [anchor.href or "", anchor.text]
    fields.extend(anchor.alts)
    folded = [f.casefold() for f in fields]
    return any(name in f for name in names for f in folded)


def resolve_locator(base, href):
    """Resolve a possibly-relative href against its hub's locator."""
    if "://" in href:
        return href
    if "://" in base:
        return urllib.parse.urljoin(base, href)
    return os.path.normpath(os.path.join(os.path.dirname(base), href))


def extract_candidates(hub_source, hub_locator, cfg, encoding=None):
    """All (lang1, lang2) anchor pairs within the line-distance bound.

    Returns one CandidatePair per anchor pair, in hub order, with hrefs
    resolved against the hub locator; a pair of locators linked twice is
    listed twice (``pipeline.generate_candidates`` keeps the first).  A
    remote hub's anchor that does not resolve to an http or https locator
    (``file:``, ``mailto:``, ``javascript:``) is skipped, so a web page
    never points the crawler at local files.
    ``encoding`` is the charset from the hub's HTTP header, if any; see
    ``decode_html``.  Any text, even garbage, parses; a hub without
    language anchors yields an empty list.
    """
    text = decode_html(hub_source, encoding)
    anchors = [a for a in parse_anchors(text) if a.href]
    if not is_local(hub_locator):
        anchors = [a for a in anchors
                   if is_web(resolve_locator(hub_locator, a.href))]
    firsts = [a for a in anchors if anchor_matches(a, cfg.lang1_names)]
    seconds = [a for a in anchors if anchor_matches(a, cfg.lang2_names)]
    # Anchor lines never decrease in document order, so the seconds within
    # a first's line window are one slice, found by bisection.
    lines = [a.line for a in seconds]
    out = []
    for a1 in firsts:
        lo = bisect_left(lines, a1.line - cfg.max_line_distance)
        hi = bisect_right(lines, a1.line + cfg.max_line_distance)
        for a2 in seconds[lo:hi]:
            if a2 is not a1:
                out.append(CandidatePair(
                    resolve_locator(hub_locator, a1.href),
                    resolve_locator(hub_locator, a2.href),
                    source_hub=hub_locator, line_distance=abs(a1.line - a2.line)))
    return out


def read_hub_list(path):
    """Every hub locator of a prepared list, in order.

    One locator per line; blank lines and ``#`` comments are skipped.  The
    list stands in for the anchor search (see ``build_query``), whose
    engine no longer exists; ``pipeline.generate_candidates`` reads the
    first ``GeneratorConfig.max_hits`` of them, as the search's hit cap.
    """
    with open(path, encoding="utf-8") as fh:
        lines = (line.strip() for line in fh)
        return [line for line in lines if line and not line.startswith("#")]
