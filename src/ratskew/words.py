"""Words over indexed letter families.

Words are bare tuples of letter indices; the functions here are the shared
vocabulary (concatenation is tuple ``+``): the length-lex order used for
every tie-break, and monomial rendering.
"""

from __future__ import annotations

Word = tuple  # tuple of int letter indices


def word_key(w: Word):
    """Sort key for the length-then-lex order used for all tie-breaking."""
    return (len(w), w)


def render_word(w: Word, kind: str) -> str:
    """Monomial text with repeated letters collapsed: (0,0,1) -> 'x0^2*x1'."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        base = "%s%d" % (kind, w[i])
        parts.append(base if j - i == 1 else "%s^%d" % (base, j - i))
        i = j
    return "*".join(parts)
