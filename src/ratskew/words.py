"""Words over indexed letter families.

Words are bare tuples of letter indices; the functions here are the shared
vocabulary (concatenation is tuple ``+``): the length-lex order used for
every tie-break, monomial rendering, and the term dict of a loaded element.
"""

from __future__ import annotations

from collections import Counter

Word = tuple  # tuple of int letter indices


def word_key(w: Word):
    """Sort key for the length-then-lex order used for all tie-breaking."""
    return (len(w), w)


def term_dict(pairs: list) -> dict:
    """The dict of a loaded element's list of (word, coefficient) pairs.  A
    word listed twice would keep only its last coefficient, so it is
    refused with ValueError; ``to_json`` never writes one."""
    out = dict(pairs)
    if len(out) != len(pairs):
        w = next(w for w, k in Counter(w for w, _ in pairs).items() if k > 1)
        raise ValueError("the term %r is listed twice" % (w,))
    return out


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
