"""Deterministic synthetic corpus for offline end-to-end runs.

Builds, under a target directory, 20 hub pages linking out to 30
candidate page pairs with known ground truth: 12 genuine English/Spanish
parallel pairs plus 18 distractors covering every pipeline disposition
(an identical-URL pair and a byte-identical copy pair, links to missing
and empty files, a PDF, structurally alien pages, structurally parallel
pages with uncorrelated or variance-free or everywhere-equal chunk
lengths, and one English/English pair whose structure and lengths look
perfectly parallel and which only the language filter can remove).

Everything is generated arithmetically, with no randomness, so repeated
builds are byte-identical and the expected outcome of a pipeline run is
known exactly: 13 accepts by default and 12 with the language filter on.
"""

from __future__ import annotations

import os
from importlib import resources

from .langid import train

# Word pools keyed by exact non-whitespace length, used to hit chunk
# lengths precisely while keeping the text plausibly English or Spanish.
_EN_POOL = {
    1: ["a", "i"],
    2: ["of", "to", "in", "we", "it"],
    3: ["the", "and", "was", "for", "are"],
    4: ["with", "that", "from", "they", "have"],
    5: ["house", "water", "night", "under", "three"],
    6: ["people", "garden", "window", "summer", "little"],
    7: ["morning", "village", "evening", "weather", "teacher"],
    8: ["children", "mountain", "together", "sunlight"],
    9: ["beautiful", "wonderful", "yesterday"],
    10: ["everything", "friendship", "understand"],
}
_ES_POOL = {
    1: ["y", "o", "a"],
    2: ["de", "la", "el", "en", "un"],
    3: ["los", "las", "una", "por", "con"],
    4: ["casa", "agua", "vida", "cada", "bajo"],
    5: ["tarde", "noche", "campo", "viejo", "plaza"],
    6: ["pueblo", "verano", "tiempo", "cocina"],
    7: ["ventana", "familia", "palabra", "caminos"],
    8: ["historia", "escalera", "mercados"],
    9: ["diferente", "primavera", "campesino"],
    10: ["septiembre", "biblioteca", "estaciones"],
}


def pool_text(pool, target, salt=0):
    """Words from ``pool`` whose non-whitespace length is exactly ``target``."""
    if target < 1:
        raise ValueError("target length must be >= 1")
    mids = pool[4] + pool[5] + pool[6]
    words = []
    i = salt
    remaining = target
    while remaining > 10:
        w = mids[i % len(mids)]
        words.append(w)
        remaining -= len(w)
        i += 1
    words.append(pool[remaining][i % len(pool[remaining])])
    return " ".join(words)


def sample_text(lang):
    """Bundled known-language training text ('en' or 'es')."""
    path = resources.files("webbitext").joinpath("data", "%s_sample.txt" % lang)
    return path.read_text(encoding="utf-8")


def train_models(out_dir, n=3):
    """Train the bundled en/es models; returns their file paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for lang in ("en", "es"):
        model = train(sample_text(lang), lang, n=n)
        path = os.path.join(out_dir, "%s.model" % lang)
        model.save(path)
        paths.append(path)
    return paths


def _standard_page(title, chunks):
    lines = ["<HTML>", "<HEAD>", "<TITLE>%s</TITLE>" % title, "</HEAD>",
             "<BODY>", "<H1>%s</H1>" % chunks[0]]
    for text in chunks[1:]:
        lines.append("<P>%s</P>" % text)
    lines.extend(["</BODY>", "</HTML>"])
    return "\n".join(lines) + "\n"


def _table_page(title, cells, rows):
    lines = ["<HTML>", "<BODY>", "<TABLE BORDER=1>"]
    per_row = max(1, len(cells) // rows)
    for r in range(rows):
        row = cells[r * per_row:(r + 1) * per_row]
        if not row:
            break
        lines.append("<TR>" + "".join("<TD>%s</TD>" % c for c in row) + "</TR>")
    lines.extend(["</TABLE>", "<HR>", "<ADDRESS>%s</ADDRESS>" % title,
                  "</BODY>", "</HTML>"])
    return "\n".join(lines) + "\n"


def _true_pair_lengths(k):
    """Length vectors for genuine pair ``k``: y tracks 1.12x with jitter."""
    xs = [20 + k] + [35 + ((k * 7 + i * 13) % 90) for i in range(9)]
    ys = []
    for i, v in enumerate(xs):
        if i == 0:
            w = round(1.12 * v) + 1
        else:
            w = round(1.12 * v) + ((k + (i - 1) * 5) % 6) - 2
        if w == v:
            w += 1
        ys.append(w)
    return xs, ys


def _nosig_lengths(seed):
    """Structurally parallel but uncorrelated length vectors."""
    xs = [30 + 14 * i for i in range(10)]
    ys = [25 + ((i * i * 37 + seed * 61 + i * seed * 13) % 120)
          for i in range(10)]
    return xs, [b + 1 if a == b else b for a, b in zip(xs, ys)]


def _page_from_lengths(pool, lengths, salt):
    title = pool_text(pool, lengths[0], salt)
    chunks = [pool_text(pool, v, salt + 3 * i + 1)
              for i, v in enumerate(lengths[1:])]
    return _standard_page(title, chunks)


class _HubWriter:
    """Accumulates hubs of one or two anchor groups, 30 pairs over 20 hubs."""

    def __init__(self, hubs_dir):
        self.hubs_dir = hubs_dir
        self.hub_paths = []
        self._pending = []

    def add_group(self, group_lines):
        self._pending.append(group_lines)
        if len(self._pending) == 2 or len(self.hub_paths) >= 10:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        idx = len(self.hub_paths) + 1
        body = ["<HTML>", "<BODY>", "<H2>hub %02d</H2>" % idx]
        for gi, group in enumerate(self._pending):
            if gi:
                body.extend(["<P>spacer line</P>"] * 14)
            body.extend(group)
        body.extend(["</BODY>", "</HTML>"])
        path = os.path.join(self.hubs_dir, "hub%02d.html" % idx)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(body) + "\n")
        self.hub_paths.append(path)
        self._pending = []


def _anchor_group(href1, href2, style, gap_lines):
    """One English/Spanish anchor pair, ``gap_lines`` source lines apart."""
    filler = ["<P>between the links</P>"] * gap_lines
    if style == "alt":
        first = '<A HREF="%s"><IMG SRC="flag1.gif" ALT="English version"></A>' % href1
        second = '<A HREF="%s"><IMG SRC="flag2.gif" ALT="Versi&oacute;n en espa&ntilde;ol"></A>' % href2
    elif style == "href":
        first = '<A HREF="%s">click here</A>' % href1
        second = '<A HREF="%s">Espa&ntilde;ol</A>' % href2
    else:
        first = '<A HREF="%s">English</A>' % href1
        second = '<A HREF="%s">Spanish</A>' % href2
    return [first] + filler + [second]


def build_corpus(root):
    """Write the corpus under ``root``; returns paths and expectations."""
    root = os.path.abspath(root)
    pages_dir = os.path.join(root, "pages")
    hubs_dir = os.path.join(root, "hubs")
    os.makedirs(pages_dir, exist_ok=True)
    os.makedirs(hubs_dir, exist_ok=True)

    def write_page(name, content):
        path = os.path.join(pages_dir, name)
        mode = "wb" if isinstance(content, bytes) else "w"
        kwargs = {} if isinstance(content, bytes) else {"encoding": "utf-8"}
        with open(path, mode, **kwargs) as fh:
            fh.write(content)
        return path

    hubs = _HubWriter(hubs_dir)
    gold = []            # (pair_id, label)
    expected_accept = []  # pair ids accepted by the default pipeline
    pair_count = 0

    def register(name1, name2, label, style="text", gap=None):
        nonlocal pair_count
        # anchors land gap+1 source lines apart, so distances cover 1..10
        gap = pair_count % 10 if gap is None else gap
        href1 = "../pages/" + name1
        href2 = "../pages/" + name2
        hubs.add_group(_anchor_group(href1, href2, style, gap))
        pid = "%s %s" % (os.path.join(root, "pages", name1),
                         os.path.join(root, "pages", name2))
        gold.append((pid, label))
        pair_count += 1
        return pid

    # 12 genuine English/Spanish parallel pairs.
    for k in range(12):
        xs, ys = _true_pair_lengths(k)
        en_name = "t%02den.html" % k
        es_name = "t%02des.html" % k
        if k == 4:  # one pair found via href-substring anchors
            en_name = "guide-english-%d.html" % k
            es_name = "g%02dsp.html" % k
        write_page(en_name, _page_from_lengths(_EN_POOL, xs, salt=k))
        write_page(es_name, _page_from_lengths(_ES_POOL, ys, salt=k + 5))
        # href-substring matching needs language names in the file names,
        # which only pair 4 carries; the rest use text or ALT anchors.
        style = "href" if k == 4 else ("alt" if k % 3 == 0 else "text")
        pid = register(en_name, es_name, 1, style=style)
        expected_accept.append(pid)

    # English/English pair with perfectly parallel structure and lengths:
    # the evaluator accepts it; only the language filter can remove it.
    xs, _ = _true_pair_lengths(3)
    ys = [round(1.15 * v) + (1 if round(1.15 * v) == v else 0) for v in xs]
    write_page("sameen-a.html", _page_from_lengths(_EN_POOL, xs, salt=21))
    write_page("sameen-b.html", _page_from_lengths(_EN_POOL, ys, salt=34))
    same_lang_pair = register("sameen-a.html", "sameen-b.html", 0)
    expected_accept.append(same_lang_pair)

    # Parallel structure, uncorrelated lengths: rejected (not significant).
    for j, seed in enumerate((4, 5, 7)):
        xs, ys = _nosig_lengths(seed)
        write_page("ns%den.html" % j, _page_from_lengths(_EN_POOL, xs, salt=40 + j))
        write_page("ns%des.html" % j, _page_from_lengths(_ES_POOL, ys, salt=50 + j))
        register("ns%den.html" % j, "ns%des.html" % j, 0)

    # Constant lengths on both sides: correlation undefined (zero variance).
    write_page("zven.html", _page_from_lengths(_EN_POOL, [60] * 10, salt=61))
    write_page("zves.html", _page_from_lengths(_ES_POOL, [66] * 10, salt=62))
    register("zven.html", "zves.html", 0)

    # Same structure and identical lengths everywhere: nothing unequal to
    # correlate (insufficient pairs).
    eq_lengths = [24, 48, 56, 64, 72, 80, 88, 96, 104, 112]
    write_page("eqen.html", _page_from_lengths(_EN_POOL, eq_lengths, salt=71))
    write_page("eqes.html", _page_from_lengths(_ES_POOL, eq_lengths, salt=72))
    register("eqen.html", "eqes.html", 0)

    # Structurally alien pairs: rejected on mismatch proportion alone.
    for j in range(6):
        xs, _ = _true_pair_lengths(j)
        write_page("mm%den.html" % j, _page_from_lengths(_EN_POOL, xs, salt=80 + j))
        cells = [pool_text(_ES_POOL, 18 + 5 * ((j + c) % 7), salt=90 + j + c)
                 for c in range(8 + j)]
        write_page("mm%des.html" % j,
                   _table_page(pool_text(_ES_POOL, 30, salt=j), cells, rows=3 + j))
        register("mm%den.html" % j, "mm%des.html" % j, 0)

    # Identical pages: same URL twice, and a byte-identical copy.
    page = _page_from_lengths(_EN_POOL, _true_pair_lengths(7)[0], salt=99)
    write_page("idsame.html", page)
    register("idsame.html", "idsame.html", 0)
    write_page("idcopy-a.html", page)
    write_page("idcopy-b.html", page)
    register("idcopy-a.html", "idcopy-b.html", 0)

    # Unretrievable: missing targets and an empty file.
    write_page("okpage-a.html", _page_from_lengths(_EN_POOL, eq_lengths, salt=13))
    write_page("okpage-b.html", _page_from_lengths(_EN_POOL, eq_lengths, salt=14))
    register("okpage-a.html", "gone-es-1.html", 0)
    register("gone-en-2.html", "okpage-b.html", 0)
    write_page("blank-es.html", "")
    register("okpage-a.html", "blank-es.html", 0)

    # Non-HTML: a PDF on the Spanish side.
    write_page("pdfen.html", _page_from_lengths(_EN_POOL, eq_lengths, salt=15))
    write_page("doc-es.pdf", b"%PDF-1.4\n1 0 obj\n<<>>\nendobj\ntrailer\n<<>>\n%%EOF\n")
    register("pdfen.html", "doc-es.pdf", 0)

    hubs.flush()
    if pair_count != 30 or len(hubs.hub_paths) != 20:
        raise RuntimeError("demo corpus has %d pairs in %d hubs, expected "
                           "30 in 20" % (pair_count, len(hubs.hub_paths)))

    hubs_file = os.path.join(root, "hubs.txt")
    with open(hubs_file, "w", encoding="utf-8") as fh:
        fh.write("".join(p + "\n" for p in hubs.hub_paths))
    gold_file = os.path.join(root, "gold.tsv")
    with open(gold_file, "w", encoding="utf-8") as fh:
        fh.write("".join("%s\t%d\n" % (pid, label) for pid, label in gold))

    return {
        "root": root,
        "hubs_file": hubs_file,
        "gold_file": gold_file,
        "pages_dir": pages_dir,
        "hub_paths": hubs.hub_paths,
        "gold": dict(gold),
        "expected_accept_default": expected_accept,
        "same_language_pair": same_lang_pair,
        "total_pairs": pair_count,
    }
