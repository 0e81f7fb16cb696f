"""Candidate generation: query building, anchor matching, hub extraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import growth_ratio
from webbitext import (Anchor, CandidatePair, Fetcher, GeneratorConfig,
                       PageCache, anchor_matches, build_query,
                       extract_candidates, parse_anchors, read_hub_list)
from webbitext.candidates import resolve_locator
from webbitext.pipeline import generate_candidates


def cfg(max_line_distance=10, lang1=("english",), lang2=("spanish", "español")):
    return GeneratorConfig(frozenset(lang1), frozenset(lang2),
                           max_line_distance=max_line_distance)


def test_build_query_exact_form():
    assert build_query("english", "french") == \
        'anchor:"english" AND anchor:"french"'
    assert build_query("english", "spanish") == \
        'anchor:"english" AND anchor:"spanish"'
    # no validation of sameness here; that is the caller's business
    assert build_query("english", "english") == \
        'anchor:"english" AND anchor:"english"'
    with pytest.raises(ValueError):
        build_query("", "french")


def test_anchor_matches_text_href_and_alt():
    names = {"french"}
    assert anchor_matches(Anchor("/fr/index.html", "French"), names)
    assert anchor_matches(Anchor("french.gif", ""), names)
    assert not anchor_matches(Anchor("/about.html", "About"), names)
    assert anchor_matches(Anchor("/x", "", alts=["Drapeau FRENCH"]), names)
    assert anchor_matches(Anchor("/x", "en Français... french version"), names)


def test_anchor_matching_is_case_insensitive_substring():
    names = {"español"}
    assert anchor_matches(Anchor("/x", "Versión en ESPAÑOL"), names)
    assert anchor_matches(Anchor("index-español.htm", ""), names)
    assert not anchor_matches(Anchor("/x", "espanol"), names)  # distinct letters


def test_parse_anchors_collects_text_alt_and_line():
    html = (
        '<HTML><BODY>\n'
        '<A HREF="/en.html">English</A>\n'
        'filler\n'
        '<A HREF="/es.html"><IMG SRC="f.gif" ALT="Bandera"> aquí</A>\n'
        '<A NAME="no-href">skip me</A>\n'
        '</BODY></HTML>\n'
    )
    anchors = parse_anchors(html)
    assert len(anchors) == 3
    a1, a2, a3 = anchors
    assert (a1.href, a1.text, a1.line) == ("/en.html", "English", 2)
    assert a2.href == "/es.html" and a2.alts == ["Bandera"] and a2.line == 4
    assert a2.text.strip() == "aquí"
    assert a3.href is None


def test_extract_simple_pair_within_distance():
    html = ('<A HREF="/en.html">English</A>\n\n\n'
            '<A HREF="/es.html">Spanish</A>')
    pairs = extract_candidates(html, "http://hub.example/x.html", cfg())
    assert len(pairs) == 1
    p = pairs[0]
    assert p.url1 == "http://hub.example/en.html"
    assert p.url2 == "http://hub.example/es.html"
    assert p.line_distance == 3
    assert p.source_hub == "http://hub.example/x.html"


def test_distance_boundary_is_inclusive():
    def hub(gap):
        return ('<A HREF="/en.html">English</A>' + "\n" * gap +
                '<A HREF="/es.html">Spanish</A>')
    at_limit = extract_candidates(hub(10), "http://h/x.html", cfg())
    assert len(at_limit) == 1 and at_limit[0].line_distance == 10
    beyond = extract_candidates(hub(11), "http://h/x.html", cfg())
    assert beyond == []


def test_same_line_anchors_distance_zero():
    html = '<A HREF="/en.html">English</A> | <A HREF="/es.html">Spanish</A>'
    pairs = extract_candidates(html, "http://h/x.html", cfg())
    assert len(pairs) == 1 and pairs[0].line_distance == 0


def test_two_firsts_one_second_gives_cross_product():
    html = ('<A HREF="/en1.html">English</A>\n'
            '<A HREF="/en2.html">English too</A>\n'
            '<A HREF="/es.html">Spanish</A>\n')
    pairs = extract_candidates(html, "http://h/x.html", cfg())
    assert {(p.url1, p.url2) for p in pairs} == {
        ("http://h/en1.html", "http://h/es.html"),
        ("http://h/en2.html", "http://h/es.html"),
    }


def test_duplicate_urls_collapse_and_self_pairing_is_skipped(tmp_path):
    html = ('<A HREF="/same.html">English</A>\n'
            '<A HREF="/same.html">English</A>\n'
            '<A HREF="/es.html">Spanish</A>\n'
            '<A HREF="/both.html">English and Spanish</A>\n')
    hub = tmp_path / "x.html"
    hub.write_text(html, encoding="utf-8")
    fetcher = Fetcher(PageCache(str(tmp_path / "cache")))
    pairs, listed, _ = generate_candidates(fetcher, [str(hub)], cfg())
    keys = {(p.url1, p.url2) for p in pairs}
    # the bilingual anchor may pair with others but never with itself
    assert ("/both.html", "/both.html") not in keys
    assert ("/same.html", "/es.html") in keys
    assert len(pairs) == len(keys) < listed
    # a pair linked twice is generated once, from its first listing
    assert [p.line_distance for p in pairs
            if (p.url1, p.url2) == ("/same.html", "/es.html")] == [2]


def test_relative_href_resolution_with_dotdot():
    html = ('<A HREF="../en/page.html">English</A>\n'
            '<A HREF="../es/page.html">Spanish</A>')
    pairs = extract_candidates(html, "http://h/hubs/x.html", cfg())
    assert pairs[0].url1 == "http://h/en/page.html"
    assert pairs[0].url2 == "http://h/es/page.html"
    local = extract_candidates(html, "/data/hubs/x.html", cfg())
    assert local[0].url1 == "/data/en/page.html"


def test_a_remote_hub_links_only_to_web_pages():
    html = ('<A HREF="en.html">English</A>\n'
            '<A HREF="file:///etc/hostname">Spanish</A>\n'
            '<A HREF="mailto:es@x">Spanish</A>\n'
            '<A HREF="javascript:void(0)">Spanish</A>\n'
            '<A HREF="HTTPS://o.example/es.html">Spanish</A>')
    pairs = extract_candidates(html, "http://h.example/hub.html", cfg())
    assert [(p.url1, p.url2) for p in pairs] == \
        [("http://h.example/en.html", "HTTPS://o.example/es.html")]
    # a local hub keeps today's rule: every href is a candidate
    local = extract_candidates(html, "/data/hub.html", cfg())
    assert [p.url2 for p in local] == ["file:///etc/hostname", "/data/mailto:es@x",
                                       "/data/javascript:void(0)",
                                       "HTTPS://o.example/es.html"]


def test_unparseable_hub_is_empty_not_fatal():
    assert extract_candidates(b"\x00\xff\xfe garbage", "h", cfg()) == []
    assert extract_candidates("", "h", cfg()) == []


def test_local_file_backend(tmp_path):
    hub_list = tmp_path / "hubs.txt"
    hub_list.write_text("# comment\n/a.html\n\n/b.html\n/c.html\n")
    hubs = read_hub_list(str(hub_list))
    assert hubs == ["/a.html", "/b.html", "/c.html"]
    # The hit cap is the candidate stage's: it reads the first max_hits.
    fetcher = Fetcher(PageCache(str(tmp_path / "cache")))

    def hubs_read(max_hits):
        generator = GeneratorConfig(frozenset({"a"}), frozenset({"b"}),
                                    max_hits=max_hits)
        _, _, errors = generate_candidates(fetcher, hubs, generator)
        return [error["hub"] for error in errors]  # none of them exists

    assert hubs_read(2) == ["/a.html", "/b.html"]
    assert hubs_read(200) == ["/a.html", "/b.html", "/c.html"]
    assert hubs_read(0) == []


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(frozenset(), frozenset({"x"}))
    with pytest.raises(ValueError):
        GeneratorConfig(frozenset({"a"}), frozenset({"b"}), max_line_distance=-1)
    # A slice would read a negative cap as "all but the last N".
    with pytest.raises(ValueError):
        GeneratorConfig(frozenset({"a"}), frozenset({"b"}), max_hits=-1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["english", "spanish", "neither"]),
                          st.integers(0, 25)),
                min_size=0, max_size=8),
       st.integers(0, 12))
def test_extraction_respects_distance_and_membership(anchor_spec, max_dist):
    lines = []
    row = 0
    hrefs = {}
    for i, (kind, gap) in enumerate(anchor_spec):
        row += gap
        href = "/p%d-%s.html" % (i, kind[:2])
        hrefs[href] = (kind, row + 1 + len(lines))  # anchors go one per line
        lines.extend([""] * gap)
        lines.append('<A HREF="%s">%s</A>' % (href, kind))
    html = "\n".join(lines)
    pairs = extract_candidates(html, "http://h/x.html",
                               cfg(max_line_distance=max_dist,
                                   lang1=("english",), lang2=("spanish",)))
    anchors = parse_anchors(html)
    en = [a for a in anchors if "english" in a.text]
    es = [a for a in anchors if "spanish" in a.text]
    expected = set()
    for a1 in en:
        for a2 in es:
            if abs(a1.line - a2.line) <= max_dist:
                expected.add(("http://h" + a1.href, "http://h" + a2.href))
    assert {(p.url1, p.url2) for p in pairs} == expected
    for p in pairs:
        assert p.line_distance <= max_dist


def test_unclosed_anchor_text_takes_near_linear_time():
    def hub(runs):
        return '<A HREF="/en.html">' + ("wordy text " * 20 + "<B>") * runs

    # Two size doublings: linear work grows about 4x, quadratic work 16x.
    assert growth_ratio(parse_anchors, hub, 4000) < 8
    assert parse_anchors(hub(3))[0].text == "wordy text " * 60


def nested_loop_pairs(hub, locator, generator):
    """Every (first, second) anchor pair within the line bound, in hub order,
    by the full cross product."""
    anchors = [a for a in parse_anchors(hub) if a.href]
    firsts = [a for a in anchors if anchor_matches(a, generator.lang1_names)]
    seconds = [a for a in anchors if anchor_matches(a, generator.lang2_names)]
    return [CandidatePair(resolve_locator(locator, a1.href),
                          resolve_locator(locator, a2.href), source_hub=locator,
                          line_distance=abs(a1.line - a2.line))
            for a1 in firsts for a2 in seconds
            if a1 is not a2
            and abs(a1.line - a2.line) <= generator.max_line_distance]


_LABELS = ["English", "Spanish", "English / Español", "Home"]


def random_hub(rng, groups):
    lines = []
    for g in range(groups):
        anchors = ['<A HREF="/g%d/%d.html">%s</A>' % (g, k, rng.choice(_LABELS))
                   for k in range(rng.randint(1, 3))]
        lines.append(" | ".join(anchors))
        lines.extend(["filler"] * rng.choice([0, 0, 1, 3, 12]))
    return "\n".join(lines)


def test_line_window_matches_the_nested_loop_on_a_large_hub():
    hub = random_hub(random.Random(7), 2000)
    pairs = extract_candidates(hub, "http://h/x.html", cfg())
    assert len(pairs) > 2000
    assert pairs == nested_loop_pairs(hub, "http://h/x.html", cfg())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 30), st.integers(0, 15))
def test_line_window_matches_the_nested_loop_on_random_hubs(seed, groups, dist):
    hub = random_hub(random.Random(seed), groups)
    generator = cfg(max_line_distance=dist)
    assert extract_candidates(hub, "http://h/x.html", generator) == \
        nested_loop_pairs(hub, "http://h/x.html", generator)
