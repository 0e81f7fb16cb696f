"""
Linearizing two pages and aligning their token streams
======================================================

A pair of pages in parallel translation carries nearly identical HTML
structure.  Flatten each page into START/END/Chunk tokens and the shared
markup lines up, leaving the translated text chunks paired by position.
"""

from webbitext import (align, chunk_pairs, linearize, mismatch_ratio,
                       render_token)
from webbitext.cli import render_alignment

english = """\
<HTML>
<TITLE>Our Mountain Village</TITLE>
<BODY>
<H1>Welcome, travelers</H1>
<P>The village sits between three green hills.</P>
<P>Every morning the market fills the square with noise and color.</P>
<P>Visitors who stay a week never want to leave again.</P>
</BODY>
</HTML>
"""

french = """\
<HTML>
<TITLE>Notre village de montagne</TITLE>
<BODY>
<H1>Bienvenue aux voyageurs</H1>
<P>Le village se trouve entre trois collines vertes.</P>
<P>Chaque matin le marche remplit la place de bruit et de couleurs.</P>
<P>Les visiteurs qui restent une semaine ne veulent plus jamais partir.</P>
</BODY>
</HTML>
"""

left = linearize(english, source_id="en")
right = linearize(french, source_id="fr")

print("English page linearizes to:")
for tok in left.tokens:
    print(render_token(tok))
print()

alignment = align(left, right)
print("Aligned token streams (sdiff style):")
print(render_alignment(alignment, left, right))
print()
print("mismatched tokens: %d of %d (ratio %.3f)"
      % (alignment.mismatch_count, alignment.total_tokens,
         mismatch_ratio(alignment)))

pairs = chunk_pairs(alignment, left, right)
print("aligned unequal chunk lengths:", pairs.xy())
print()
print("Those length pairs are the raw material for the correlation test")
print("in demo 02; the structure did all the hard work already.")
