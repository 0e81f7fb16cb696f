"""Transduce an HTML document into a linear token sequence.

The token stream is the structural skeleton used for alignment: a START or
END token for every element boundary, and a Chunk token for every maximal
run of inter-tag text that contains at least one non-whitespace character.
A Chunk's length is its count of non-whitespace characters; whitespace
never counts.  Tag identity is the element name only, uppercased, with
attributes discarded.  SCRIPT and STYLE contents are code, not prose, and
produce no Chunk tokens.  HTML entities are decoded before lengths are
counted, so ``&eacute;`` counts as one character.

Offsets are character positions into the decoded document (equal to byte
offsets for ASCII and other single-byte encodings).
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass, field
import html as _html

from . import htmlscan
from .htmlscan import RAWTEXT, START, END, TEXT, VOID_ELEMENTS

KIND_START = "start"
KIND_END = "end"
KIND_CHUNK = "chunk"

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?([a-zA-Z0-9_.:-]+)""", re.IGNORECASE)


@dataclass(frozen=True)
class Token:
    """One element of a linearized document.

    ``label`` is set for start/end tokens; ``length`` and ``text`` for
    chunks.  ``offset`` locates the token in the decoded source.
    """

    kind: str
    offset: int = 0
    label: str | None = None
    length: int | None = None
    text: str | None = None

    def is_chunk(self):
        return self.kind == KIND_CHUNK


def start_token(label, offset=0):
    return Token(KIND_START, offset, label=label.upper())


def end_token(label, offset=0):
    return Token(KIND_END, offset, label=label.upper())


def chunk_token(text, offset=0):
    length = sum(1 for c in text if not c.isspace())
    return Token(KIND_CHUNK, offset, length=length, text=text)


def render_token(tok):
    """Canonical one-line rendering: [START:A], [END:A], [Chunk:174]."""
    if tok.kind == KIND_START:
        return "[START:%s]" % tok.label
    if tok.kind == KIND_END:
        return "[END:%s]" % tok.label
    return "[Chunk:%d]" % tok.length


@dataclass
class LinearDocument:
    """Ordered token sequence for one source document."""

    tokens: list = field(default_factory=list)
    source_id: str = ""

    def __len__(self):
        return len(self.tokens)

    def render(self):
        return "\n".join(render_token(t) for t in self.tokens)


def decode_html(data, encoding=None):
    """Decode page bytes to text without ever raising.

    Priority: caller-supplied encoding (e.g. from an HTTP header), then a
    charset declared in a meta tag, then UTF-8, falling back to Latin-1,
    which accepts any byte sequence.  Bad bytes are replaced, not fatal.
    """
    if isinstance(data, str):
        return data
    if data.startswith(codecs.BOM_UTF8):
        return data.decode("utf-8-sig", errors="replace")
    for enc in (encoding, _sniff_charset(data)):
        if not enc:
            continue
        try:
            return data.decode(enc, errors="replace")
        except LookupError:  # unknown name, or a bytes codec such as "hex"
            continue
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data.decode("latin-1")


def _sniff_charset(data):
    m = _META_CHARSET_RE.search(data[:4096])
    return m.group(1).decode("ascii", "ignore") if m else None


def linearize(data, source_id="", encoding=None):
    """Run the markup transducer over one document.

    ``data`` may be raw bytes or already-decoded text; it need not be well
    formed.  Returns a LinearDocument whose token stream is in document
    order, with no zero-length chunks and no two adjacent chunks.
    """
    text = decode_html(data, encoding)
    tokens = []
    pieces = []
    piece_offset = 0

    def flush():
        nonlocal pieces
        if not pieces:
            return
        merged = "".join(pieces)
        pieces = []
        if merged and not merged.isspace():
            tokens.append(chunk_token(merged, piece_offset))

    for ev in htmlscan.scan(text):
        if ev.kind == TEXT:
            if not pieces:
                piece_offset = ev.offset
            pieces.append(_html.unescape(ev.text))
        elif ev.kind == RAWTEXT:
            continue
        elif ev.kind == START:
            flush()
            tokens.append(start_token(ev.name, ev.offset))
        elif ev.kind == END:
            if ev.name in VOID_ELEMENTS:
                continue  # phantom close of a void element would desync alignment
            flush()
            tokens.append(end_token(ev.name, ev.offset))
    flush()
    return LinearDocument(tokens, source_id=source_id)


def chunk_texts(doc):
    """(offset, text) for every Chunk token, in document order."""
    return [(t.offset, t.text) for t in doc.tokens if t.is_chunk()]
