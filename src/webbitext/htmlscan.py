"""Tolerant tag-soup scanner.

Real web pages are rarely well formed, so this scanner never raises on bad
markup.  It walks a decoded document string and yields a flat stream of
events: start tags (with their attribute source), end tags, and text runs.
Comments, CDATA sections, processing instructions, declarations (including
DOCTYPE) and the contents of SCRIPT/STYLE elements are consumed silently.

Soup policy:
  - ``<`` is text unless followed by an ASCII letter, ``/``, ``!`` or ``?``
    (so ``3 < 4`` and ``<été>`` are text),
  - a tag left unclosed at end of input is dropped, with the rest of input,
  - a stray ``>`` is text,
  - quoted attribute values may contain ``>``,
  - SCRIPT/STYLE content runs to the first ``</script`` or ``</style``
    followed by whitespace, ``/`` or ``>`` (or to end of input).
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass

START = "start"
END = "end"
TEXT = "text"

# Elements with no closing tag in source.
VOID_ELEMENTS = frozenset({
    "AREA", "BASE", "BASEFONT", "BGSOUND", "BR", "COL", "COMMAND", "EMBED",
    "FRAME", "HR", "IMG", "INPUT", "ISINDEX", "KEYGEN", "LINK", "META",
    "PARAM", "SOURCE", "SPACER", "TRACK", "WBR",
})

# Where markup can start: HTML's tag-open state.  Any other ``<`` is text.
_MARKUP_RE = re.compile(r"<[a-zA-Z/!?]")
# A tag name is maximal: the lookahead keeps a failed match from retrying
# every shorter name, which would take quadratic time on ``</aaa...`` with
# no ``>``.  Outside quotes, a start tag's attribute text ends at its first
# ``>``.
_START_TAG_RE = re.compile(
    r"""<([a-zA-Z][^\t\n\r\f />]*)(?![^\t\n\r\f />])"""
    r"""([^>"']*(?:(?:"[^"]*"|'[^']*')[^>"']*)*)>""")
_END_TAG_RE = re.compile(
    r"</([a-zA-Z][^\t\n\r\f />]*)(?![^\t\n\r\f />])[^>]*>")
_ATTR_RE = re.compile(
    r"""([^\s=/>]+)(?:\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]*)))?"""
)
# Markup consumed without an event, by opener (the first that matches) and
# closer: comments, CDATA, declarations, processing instructions, and end
# tags with no name, such as ``</>`` or ``</3``.
_SKIPPED = (("<!--", "-->"), ("<![CDATA[", "]]>"), ("<!", ">"), ("<?", ">"),
            ("</", ">"))
# Elements whose content is opaque character data, not markup, and the
# end tag that closes each.
_RAWTEXT_END = {
    name: re.compile(r"</%s(?=[\t\n\r\f />])" % name, re.IGNORECASE)
    for name in ("SCRIPT", "STYLE")
}


@dataclass(slots=True)
class Event:
    """One scanner event; ``offset`` is the char position in the input.

    ``attr_text`` is a start tag's source between its name and ``>``; it is
    parsed only when ``attrs`` is read.  Slotted for cheap construction,
    so an event is mutable and unhashable.
    """

    kind: str
    offset: int
    name: str = ""
    text: str = ""
    attr_text: str = ""

    @property
    def attrs(self):
        """The start tag's attributes as a dict keyed by lowercase name."""
        attrs = {}
        for m in _ATTR_RE.finditer(self.attr_text):
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
        m = _MARKUP_RE.search(source, i)
        lt = n if m is None else m.start()
        if lt > i:
            yield Event(TEXT, i, text=source[i:lt])
        if m is None:
            return
        if source[lt + 1].isalpha():
            m = _START_TAG_RE.match(source, lt)
            if m is None:
                return  # unclosed tag at EOF: dropped
            name, attr_text = m.group(1).upper(), m.group(2)
            yield Event(START, lt, name=name, attr_text=attr_text)
            i = m.end()
            if name in _RAWTEXT_END and not attr_text.rstrip().endswith("/"):
                m = _RAWTEXT_END[name].search(source, i)
                i = n if m is None else m.start()
        elif m := _END_TAG_RE.match(source, lt):
            yield Event(END, lt, name=m.group(1).upper())
            i = m.end()
        else:
            opener, closer = next(pair for pair in _SKIPPED
                                  if source.startswith(pair[0], lt))
            stop = source.find(closer, lt + len(opener))
            i = n if stop < 0 else stop + len(closer)
