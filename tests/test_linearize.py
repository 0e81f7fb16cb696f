"""Linearizer tests, checked against an independent stdlib-based oracle."""

from html.parser import HTMLParser

from hypothesis import given, strategies as st

from webbitext import chunk_texts, linearize, render_token
from webbitext.linearize import (KIND_CHUNK, KIND_END, KIND_START,
                                 decode_html)


class _StripTagsOracle(HTMLParser):
    """Independent text extractor built on the stdlib parser."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts = []
        self._skip = 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style"):
            self._skip += 1

    def handle_endtag(self, tag):
        if tag in ("script", "style"):
            self._skip = max(0, self._skip - 1)

    def handle_data(self, data):
        if not self._skip:
            self.parts.append(data)


def oracle_nonws_text(html):
    parser = _StripTagsOracle()
    parser.feed(html)
    parser.close()
    return "".join(c for part in parser.parts for c in part if not c.isspace())


def kinds(doc):
    return [(t.kind, t.label if t.kind != KIND_CHUNK else t.length)
            for t in doc.tokens]


def test_title_fragment_renders_like_the_reference_output():
    doc = linearize(b"<HTML><TITLE>Sortie de Secours</TITLE><BODY>")
    assert doc.render() == (
        "[START:HTML]\n[START:TITLE]\n[Chunk:15]\n[END:TITLE]\n[START:BODY]")


def test_empty_document_gives_empty_sequence():
    assert linearize(b"").tokens == []
    assert linearize("").tokens == []


def test_whitespace_only_text_emits_no_chunk():
    doc = linearize("<B>  </B>")
    assert kinds(doc) == [(KIND_START, "B"), (KIND_END, "B")]


def test_nested_inline_markup_splits_chunks():
    doc = linearize("<P>ab<I>cd</I>ef</P>")
    assert kinds(doc) == [
        (KIND_START, "P"), (KIND_CHUNK, 2), (KIND_START, "I"),
        (KIND_CHUNK, 2), (KIND_END, "I"), (KIND_CHUNK, 2), (KIND_END, "P"),
    ]
    # independent tokenizer agrees on the text content
    assert oracle_nonws_text("<P>ab<I>cd</I>ef</P>") == "abcdef"


def test_chunk_texts_offsets_and_order():
    assert chunk_texts(linearize("<P>ab</P>")) == [(3, "ab")]
    assert chunk_texts(linearize("<B></B>")) == []


def test_chunk_texts_on_worked_example_fragment():
    doc = linearize("<HTML><TITLE>Emergency Exit</TITLE><BODY>"
                    "<H1>Emergency Exit</H1>If seated at an exit and")
    texts = [t for _, t in chunk_texts(doc)]
    assert texts == ["Emergency Exit", "Emergency Exit",
                     "If seated at an exit and"]


def test_labels_are_uppercase_and_attribute_free():
    doc = linearize('<a href="x.html" CLASS=nav>hi</A>')
    assert kinds(doc) == [(KIND_START, "A"), (KIND_CHUNK, 2), (KIND_END, "A")]


def test_comments_cdata_doctype_and_pi_emit_nothing():
    html = ("<!DOCTYPE html><!-- note --><P>a<![CDATA[ignored]]>"
            "<?php echo ?>b</P>")
    doc = linearize(html)
    # the text runs around CDATA/PI become adjacent and merge into one chunk
    assert kinds(doc) == [(KIND_START, "P"), (KIND_CHUNK, 2), (KIND_END, "P")]


def test_comment_between_text_runs_merges_into_one_chunk():
    doc = linearize("<P>ab<!-- gap -->cd</P>")
    assert kinds(doc) == [(KIND_START, "P"), (KIND_CHUNK, 4), (KIND_END, "P")]


def test_script_and_style_contents_are_not_chunks():
    html = ("<HTML><SCRIPT>var x = '<P>not text</P>';</SCRIPT>"
            "<STYLE>p { color: red }</STYLE><BODY>real</BODY>")
    doc = linearize(html)
    assert kinds(doc) == [
        (KIND_START, "HTML"), (KIND_START, "SCRIPT"), (KIND_END, "SCRIPT"),
        (KIND_START, "STYLE"), (KIND_END, "STYLE"), (KIND_START, "BODY"),
        (KIND_CHUNK, 4), (KIND_END, "BODY"),
    ]


def test_entities_decode_to_single_characters():
    doc = linearize("<P>caf&eacute; &amp; th&#233;</P>")
    chunk = doc.tokens[1]
    assert chunk.text == "café & thé"
    assert chunk.length == 8


def test_void_elements_emit_start_only():
    doc = linearize("a<BR>b<IMG SRC=x.gif>c<HR/>")
    assert kinds(doc) == [
        (KIND_CHUNK, 1), (KIND_START, "BR"), (KIND_CHUNK, 1),
        (KIND_START, "IMG"), (KIND_CHUNK, 1), (KIND_START, "HR"),
    ]


def test_stray_close_of_void_element_is_dropped():
    doc = linearize("a<BR>b</BR>c")
    assert kinds(doc) == [(KIND_CHUNK, 1), (KIND_START, "BR"), (KIND_CHUNK, 2)]


def test_malformed_markup_never_raises():
    cases = [
        "<P>unclosed tag at eof <a href='x",
        "stray > bracket",
        "a < b and c > d",
        "</>",
        "<!",
        "<P some='quoted > inside'>x</P>",
        "<>" ,
    ]
    for html in cases:
        linearize(html)  # must not raise
    assert kinds(linearize("stray > bracket"))[0][0] == KIND_CHUNK
    assert kinds(linearize("<P>t<a href='x")) == [(KIND_START, "P"),
                                                  (KIND_CHUNK, 1)]
    # attribute values may contain '>'
    assert kinds(linearize("<P some='quoted > inside'>x</P>")) == [
        (KIND_START, "P"), (KIND_CHUNK, 1), (KIND_END, "P")]


def test_undecodable_bytes_are_replaced_not_fatal():
    doc = linearize(b"<P>caf\xe9</P>")  # latin-1 bytes, no declaration
    assert doc.tokens[1].length == 4


def test_declared_charset_is_honored():
    raw = ('<META HTTP-EQUIV="Content-Type" '
           'CONTENT="text/html; charset=iso-8859-1"><P>caf\xe9</P>')
    doc = linearize(raw.encode("latin-1"))
    chunk = [t for t in doc.tokens if t.is_chunk()][0]
    assert chunk.text == "café"


def test_encoding_hint_wins():
    assert decode_html(b"caf\xc3\xa9", "utf-8") == "café"
    assert decode_html(b"caf\xe9", "latin-1") == "café"


def test_charsets_that_cannot_decode_text_are_skipped():
    assert decode_html(b"caf\xc3\xa9", "hex") == "café"
    assert decode_html(b"caf\xc3\xa9", "no-such-charset") == "café"
    doc = linearize(b'<META CHARSET="base64"><P>abc</P>')
    assert [t.length for t in doc.tokens if t.is_chunk()] == [3]


def test_render_token_forms():
    doc = linearize('<A HREF="x">abc</A>')
    assert [render_token(t) for t in doc.tokens] == \
        ["[START:A]", "[Chunk:3]", "[END:A]"]


def test_linearize_is_deterministic():
    data = b"<HTML><BODY><P>one</P><P>two</P>"
    assert linearize(data).render() == linearize(data).render()


_TEXT = st.text(alphabet="abc deféñ 123", min_size=0, max_size=12)
_TAGS = st.sampled_from(["p", "li", "b", "td", "h1", "div"])


@st.composite
def _documents(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            pieces.append(draw(_TEXT))
        else:
            tag = draw(_TAGS)
            pieces.append("<%s>%s</%s>" % (tag, draw(_TEXT), tag))
    return "".join(pieces)


@given(_documents())
def test_chunk_lengths_match_strip_tags_oracle(html):
    doc = linearize(html)
    total = sum(t.length for t in doc.tokens if t.is_chunk())
    assert total == len(oracle_nonws_text(html))


@given(_documents())
def test_round_trip_text_recovery(html):
    doc = linearize(html)
    ours = "".join(c for _, t in chunk_texts(doc) for c in t if not c.isspace())
    assert ours == oracle_nonws_text(html)


@given(_documents())
def test_no_adjacent_chunks_and_no_empty_chunks(html):
    doc = linearize(html)
    for prev, cur in zip(doc.tokens, doc.tokens[1:]):
        assert not (prev.is_chunk() and cur.is_chunk())
    for t in doc.tokens:
        if t.is_chunk():
            assert t.length >= 1
        else:
            assert t.label == t.label.upper()
