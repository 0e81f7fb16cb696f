"""Tolerant tag-soup scanner.

Real web pages are rarely well formed, so this scanner never raises on bad
markup.  It walks a decoded document string and yields a flat stream of
events: start tags (with attributes), end tags, text runs, and the raw
contents of SCRIPT/STYLE elements.  Comments, CDATA sections, processing
instructions, and declarations (including DOCTYPE) are consumed silently.

Soup policy:
  - a tag left unclosed at end of input is dropped,
  - a stray ``>`` is text,
  - ``<`` not opening a tag (e.g. ``3 < 4``) is text,
  - quoted attribute values may contain ``>``.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field

START = "start"
END = "end"
TEXT = "text"
RAWTEXT = "rawtext"

# Elements with no closing tag in source.
VOID_ELEMENTS = frozenset({
    "AREA", "BASE", "BASEFONT", "BGSOUND", "BR", "COL", "COMMAND", "EMBED",
    "FRAME", "HR", "IMG", "INPUT", "ISINDEX", "KEYGEN", "LINK", "META",
    "PARAM", "SOURCE", "SPACER", "TRACK", "WBR",
})

# Elements whose content is opaque character data, not markup.
RAWTEXT_ELEMENTS = frozenset({"SCRIPT", "STYLE"})

_NAME_RE = re.compile(r"[a-zA-Z][^\t\n\r\f />]*")
_END_TAG_RE = re.compile(r"</([a-zA-Z][^\t\n\r\f />]*)[^>]*>")
_ATTR_RE = re.compile(
    r"""([^\s=/>]+)(?:\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]*)))?"""
)


@dataclass(frozen=True)
class Event:
    """One scanner event; ``offset`` is the char position in the input."""

    kind: str
    offset: int
    name: str = ""
    text: str = ""
    attrs: dict = field(default_factory=dict)


def _parse_attrs(chunk):
    """Parse the attribute region of a start tag into a lowercase dict."""
    attrs = {}
    for m in _ATTR_RE.finditer(chunk):
        name = m.group(1).strip("/")
        if not name:
            continue
        value = next((g for g in m.groups()[1:] if g is not None), "")
        attrs.setdefault(name.lower(), html.unescape(value))
    return attrs


def scan(source):
    """Yield Events for ``source``, a decoded document string."""
    n = len(source)
    i = 0
    while i < n:
        lt = source.find("<", i)
        if lt < 0:
            yield Event(TEXT, i, text=source[i:])
            break
        if lt > i:
            yield Event(TEXT, i, text=source[i:lt])
        nxt = source[lt + 1] if lt + 1 < n else ""
        if nxt == "!":
            if source.startswith("<!--", lt):
                stop = source.find("-->", lt + 4)
                i = n if stop < 0 else stop + 3
            elif source.startswith("<![CDATA[", lt):
                stop = source.find("]]>", lt + 9)
                i = n if stop < 0 else stop + 3
            else:
                stop = source.find(">", lt + 2)
                i = n if stop < 0 else stop + 1
        elif nxt == "?":
            stop = source.find(">", lt + 2)
            i = n if stop < 0 else stop + 1
        elif nxt == "/":
            m = _END_TAG_RE.match(source, lt)
            if m:
                yield Event(END, lt, name=m.group(1).upper())
                i = m.end()
            else:
                stop = source.find(">", lt + 2)
                i = n if stop < 0 else stop + 1
        elif nxt.isalpha():
            m = _NAME_RE.match(source, lt + 1)
            name = m.group(0).upper()
            j = m.end()
            quote = None
            while j < n:
                c = source[j]
                if quote:
                    if c == quote:
                        quote = None
                elif c in "\"'":
                    quote = c
                elif c == ">":
                    break
                j += 1
            if j >= n:
                break  # unclosed tag at EOF: dropped
            attr_src = source[m.end():j]
            self_closing = attr_src.rstrip().endswith("/")
            yield Event(START, lt, name=name, attrs=_parse_attrs(attr_src))
            i = j + 1
            if name in RAWTEXT_ELEMENTS and not self_closing:
                m2 = re.compile("</" + re.escape(name), re.IGNORECASE).search(source, i)
                stop = n if m2 is None else m2.start()
                if stop > i:
                    yield Event(RAWTEXT, i, text=source[i:stop])
                i = stop
        else:
            yield Event(TEXT, lt, text="<")
            i = lt + 1
