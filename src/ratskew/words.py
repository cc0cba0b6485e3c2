"""Words over indexed letter families.

Words are bare tuples of letter indices; the functions here are the shared
vocabulary (concatenation is tuple ``+``): the length-lex order used for
every tie-break, monomial rendering, the term dict of a loaded element, and
the refusal of a loaded certificate's unknown keys.
"""

from __future__ import annotations

from collections import Counter

Word = tuple  # tuple of int letter indices


def word_key(w: Word):
    """Sort key for the length-then-lex order used for all tie-breaking."""
    return (len(w), w)


def load_terms(terms, nwords: int, coeff) -> dict:
    """The term dict of a loaded element's ``terms``: a list of terms, each
    ``nwords`` words of integer letters followed by one coefficient, which
    ``coeff`` reads.  A term's key is its word, or the tuple of its words
    if it has several.  ValueError for any other shape, and for a key
    listed twice, of which a dict would keep the last coefficient only;
    ``to_json`` never writes one."""
    shape = "[%s, coefficient]" % ", ".join(["word"] * nwords)
    if type(terms) is not list:
        raise ValueError("terms must be a list of %s terms, got %r" % (shape, terms))
    for t in terms:
        if not (type(t) is list and len(t) == nwords + 1
                and all(type(w) is list and all(type(i) is int for i in w) for w in t[:nwords])):
            raise ValueError("a term must be %s with words of integer letters, got %r" % (shape, t))
    keys = [tuple(t[0]) if nwords == 1 else tuple(map(tuple, t[:nwords])) for t in terms]
    out = dict(zip(keys, [coeff(t[nwords]) for t in terms]))
    if len(out) != len(terms):
        w = next(w for w, k in Counter(keys).items() if k > 1)
        raise ValueError("the term %r is listed twice" % (w,))
    return out


def refuse_unknown_keys(obj, keys, what: str) -> None:
    """A top-level key of ``obj`` outside ``keys``, one its re-check would
    not read, is refused with ValueError naming it, not passed over."""
    extra = set(obj) - keys
    if extra:
        raise ValueError("%s has an unknown key %r" % (what, min(extra)))


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
