"""
Finding candidate pairs on hub pages
====================================

A hub is any page linking to several language versions of the same
content.  Hubs are located with a search query over anchor text, then
each hub is scanned for anchor pairs naming the two languages within ten
source lines of each other.  Language names hide in anchor text, in image
ALT attributes, and in the URLs themselves.
"""

from webbitext import (GeneratorConfig, anchor_matches, build_query,
                       extract_candidates, parse_anchors)

print("Search query for hub pages:")
print(" ", build_query("english", "spanish"))
print()

hub = """\
<HTML><BODY>
<H2>Choose your language</H2>
<A HREF="/en/index.html">English</A> |
<A HREF="/es/index.html"><IMG SRC="flag.gif" ALT="Version en espanol"></A>
<P>unrelated link much further down the page...</P>
<A HREF="/about.html">About us</A>
</BODY></HTML>
"""

cfg = GeneratorConfig(frozenset({"english"}), frozenset({"spanish", "espanol"}))
anchors = parse_anchors(hub)
print("Anchors found on the hub:")
for a in anchors:
    hits = []
    if anchor_matches(a, cfg.lang1_names):
        hits.append("lang1")
    if anchor_matches(a, cfg.lang2_names):
        hits.append("lang2")
    print("  line %2d  %-18s text=%-10r alts=%r  %s"
          % (a.line, a.href, a.text.strip(), a.alts, ",".join(hits) or "-"))
print()

pairs = extract_candidates(hub, "http://site.example/home.html", cfg)
print("Candidate pairs (anchor distance <= %d lines):" % cfg.max_line_distance)
for p in pairs:
    print("  %s  <->  %s   (%d lines apart)"
          % (p.url1, p.url2, p.line_distance))
