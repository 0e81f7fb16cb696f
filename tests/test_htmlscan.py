"""Tag-soup scanner tests, checked against the previous scanner as oracle."""

import html
import re
from dataclasses import dataclass, field

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import growth_ratio
from webbitext import (GeneratorConfig, extract_candidates, linearize,
                       parse_anchors, render_token)
from webbitext import htmlscan
from webbitext.linearize import decode_html

# Oracle: the original scanner, verbatim apart from the name
# ``oracle_scan``.  It walks start tags one character at a time, emits a
# TEXT event for every stray ``<`` and a RAWTEXT event for SCRIPT/STYLE
# content, and parses every tag's attributes.  ``htmlscan.scan`` must
# yield the same events once adjacent TEXT runs are merged and RAWTEXT
# events dropped.

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


def oracle_scan(source):
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


def normalized(events):
    """Comparable event tuples; adjacent TEXT runs merged, RAWTEXT dropped."""
    out = []
    for ev in events:
        if ev.kind == RAWTEXT:
            continue
        if ev.kind == TEXT and out and out[-1][0] == TEXT:
            kind, offset, name, text, attrs = out[-1]
            out[-1] = (kind, offset, name, text + ev.text, attrs)
        else:
            out.append((ev.kind, ev.offset, ev.name, ev.text, ev.attrs))
    return out


# An end tag whose name only begins with "script" or "style".
_LONGER_RAWTEXT_CLOSE = re.compile(r"</(?:script|style)[^\t\n\r\f />]",
                                   re.IGNORECASE)


def read_differently(source):
    """True for input the rebuilt scanner reads differently on purpose.

    A ``<`` before a non-ASCII letter is text now (the oracle raises
    AttributeError), and ``</scripts`` no longer ends a SCRIPT element's
    content (the oracle ends it there).
    """
    after_lt = re.findall("<(?=(.))", source, re.DOTALL)
    return (any(c.isalpha() and not c.isascii() for c in after_lt)
            or _LONGER_RAWTEXT_CLOSE.search(source) is not None)


_SOUP_PIECES = st.sampled_from([
    "<", ">", "/", "</", "<!", "<?", "<!--", "-->", "<![CDATA[", "]]>", "=",
    '"', "'", " ", "\n", "\t", "\f", "x", "P", "a", "img", "B", "script",
    "STYLE", "<p>", "</p>", "<a href=", "<img alt=", "</a>", "<script>",
    "</script>", "<style>", "</style", "/>", "&amp;", "&lt", "é", "ſ", "1",
    "<a", "<b>", "<P ", "<IMG SRC=x ", "<script ", "<style/>", "</B >",
])
SOUP = st.lists(st.one_of(_SOUP_PIECES, st.text(max_size=3)),
                max_size=30).map("".join)
CFG = GeneratorConfig(frozenset({"english"}), frozenset({"spanish", "español"}))


@settings(max_examples=500, deadline=None)
@given(st.one_of(SOUP, st.text()))
@example('<a"b "c>x')  # a quote in the name opens no quoted value
@example("<p>x<p'q 'r>y")
def test_events_match_the_oracle_on_tag_soup(source):
    assume(not read_differently(source))
    assert normalized(htmlscan.scan(source)) == normalized(oracle_scan(source))


def test_events_match_the_oracle_on_well_formed_pages():
    page = ('<!DOCTYPE html><HTML><HEAD><TITLE>t &amp; u</TITLE>'
            '<SCRIPT type="text/javascript">if (a < b) { x = "</p>"; }</SCRIPT>'
            '<STYLE>p > b { color: red }</STYLE></HEAD>\n<BODY>'
            '<A HREF="/en.html" title=\'a > b\'>English <IMG SRC=f.gif ALT=flag>'
            '</A> 3 < 4 > 2 <BR/><!-- note --><?pi x?><![CDATA[c]]></BODY>')
    assert normalized(htmlscan.scan(page)) == normalized(oracle_scan(page))


def test_lt_before_a_non_ascii_letter_is_text():
    with pytest.raises(AttributeError):
        list(oracle_scan("<été>"))
    doc = linearize("<P>x <été> y</P>")
    assert [render_token(t) for t in doc.tokens] == [
        "[START:P]", "[Chunk:7]", "[END:P]"]
    assert doc.tokens[1].text == "x <été> y"


def test_hub_with_lt_before_a_non_ascii_letter_keeps_its_pairs():
    hub = ('<P>Versión <été></P>\n'
           '<A HREF="/en.html">English</A>\n'
           '<A HREF="/es.html">Español</A>\n')
    pairs = extract_candidates(hub, "http://h/x.html", CFG)
    assert [(p.url1, p.url2) for p in pairs] == [
        ("http://h/en.html", "http://h/es.html")]


@settings(deadline=None)
@given(st.one_of(SOUP, st.text()))
def test_readers_never_raise_on_text(source):
    list(htmlscan.scan(source))
    linearize(source)
    parse_anchors(source)
    extract_candidates(source, "http://h/x.html", CFG)


_ENCODINGS = st.sampled_from([
    None, "", "utf-8", "latin-1", "utf-16", "shift_jis", "utf-7", "idna",
    "punycode", "undefined", "hex", "base64", "rot13", "no-such-charset"])


@settings(deadline=None)
@given(st.binary(max_size=200), _ENCODINGS, _ENCODINGS)
def test_readers_never_raise_on_bytes(data, header, meta):
    if meta is not None:
        data = b'<META CHARSET="%s">' % meta.encode() + data
    linearize(data, encoding=header)
    parse_anchors(decode_html(data, header))
    extract_candidates(data, "http://h/x.html", CFG, encoding=header)


def read_all(source):
    list(htmlscan.scan(source))
    linearize(source)
    parse_anchors(source)


@pytest.mark.parametrize("make, n", [
    (lambda n: "<" * n, 200_000),
    (lambda n: '<a title="x> y' * (n // 14), 25_000),
    (lambda n: '<p>x<a href="' + "y" * n, 1_000_000),
    (lambda n: "<script>" + "</scripts> a < b " * (n // 17), 200_000),
    (lambda n: "</" + "a" * n, 50_000),
], ids=["lt-flood", "unclosed-quotes", "unclosed-quote-at-eof",
        "unterminated-script", "end-tag-without-gt"])
def test_tag_soup_takes_near_linear_time(make, n):
    # Two size doublings: linear work grows about 4x, quadratic work 16x.
    assert growth_ratio(read_all, make, n) < 8
