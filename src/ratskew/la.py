"""Dense exact linear algebra over any of the scalar domains, and the
eliminations of the span kernel.

Matrices are lists of lists of scalars, vectors are lists.  Everything here
is plain Gaussian elimination; sizes stay small (tens), exactness is what
matters.

Two classes keep a fully reduced row-echelon basis of a growing subspace,
which is the whole engine behind minimizing linear representations: the
coordinates of a vector of the span in that basis are its entries at the
pivot columns, read off with no further elimination.  They hold no field
objects at all; they are the eliminations of the one span kernel of
``linrep``, whose coefficient ring is Z, Z/p or Z[t1..tr].  A subspace has
exactly one reduced row-echelon basis, and scaling a row by a nonzero
factor does not change the space it spans, so each of them holds that
unique basis with row i scaled by its pivot entry: dividing row i by
``rows[i][pivots[i]]`` gives back the pivot-1 rows of elimination on
field values.  Their rows are dense lists of ring elements; the kernel
keeps its letter matrices in sparse columns.  No field-value copy of them
is kept: ``tests/test_linrep.py`` checks the kernel against the Hankel
rank over Q and F_p, and by specialisation from Q(t1..tr) to Q and from Q
to F_p.

* ``IntEchelon`` works over the integers (for Q, the ring ``fields.ZZ``),
  each row primitive with a positive pivot, or over the integers mod a
  prime (for F_p, the ring ``fields.zmod_ring(p)``), each pivot 1.  Over
  Z the elimination is fraction-free (Bareiss, *Math. Comp.* 22, 1968): a
  row combination ``a*v - c*row`` with the common factor of ``a`` and ``c``
  removed, and the content of a new row divided out once.  Mod p the pivot
  is normalised to 1 with a Fermat inverse.
* ``PolyEchelon`` works over Z[t1..tr] for Q(t1..tr) (``qt:r``), the ring
  ``fields.poly_ring(r)`` of nested dense lists.  It is ``IntEchelon`` with
  polynomial entries: the common factor of ``a`` and ``c`` is their gcd in
  the ring, each row is primitive (the gcd of its entries, contents
  included, is 1), and its pivot has a positive lex-leading coefficient.
  The ring and its gcd live in ``fields``; this module only calls them.
"""

from __future__ import annotations

from math import gcd

from .fields import PolyRing


def mat_vec(m, v, zero):
    return [sum((r[j] * v[j] for j in range(len(v)) if v[j]), zero) for r in m]


def vec_mat(v, m, zero, ncols=None):
    if ncols is None:
        ncols = len(m[0]) if m else 0
    out = [zero] * ncols
    for i, vi in enumerate(v):
        if not vi:
            continue
        row = m[i]
        for j in range(ncols):
            if row[j]:
                out[j] = out[j] + vi * row[j]
    return out


def mat_mul(a, b, zero):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for l in range(k):
            c = ai[l]
            if not c:
                continue
            bl = b[l]
            for j in range(m):
                if bl[j]:
                    oi[j] = oi[j] + c * bl[j]
    return out


def identity(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def dot(u, v, zero):
    return sum((u[i] * v[i] for i in range(len(u)) if u[i] and v[i]), zero)


class IntEchelon:
    """Reduced row-echelon basis of a subspace of Z^n (``p == 0``) or of
    (Z/p)^n, grown one integer vector at a time; mod p, vectors are given
    as residues in [0, p).  Over Z every row is primitive with a positive
    pivot; mod p every pivot is 1.  Rows are replaced, never changed in
    place, so an added vector may be shared."""

    def __init__(self, p: int = 0) -> None:
        self.p = p
        self.rows: list = []
        self.pivots: list = []

    def _eliminate(self, v, row, j):
        """v with its entry at column j cleared by the pivot row ``row``."""
        p, c = self.p, v[j]
        if p:
            return [(x - c * y) % p for x, y in zip(v, row)]
        a = row[j]
        g = gcd(a, c)
        a, c = a // g, c // g
        return [a * x - c * y for x, y in zip(v, row)]

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        for row, q in zip(self.rows, self.pivots):
            if v[q]:
                v = self._eliminate(v, row, q)
        for piv, x in enumerate(v):
            if x:
                break
        else:
            return False
        p = self.p
        if p:
            s = pow(v[piv], p - 2, p)
            if s != 1:
                v = [x * s % p for x in v]
        else:
            g = gcd(*v)
            if v[piv] < 0:
                g = -g
            if g != 1:
                v = [x // g for x in v]
        # keep the basis fully reduced, so coordinates sit at the pivots
        rows = self.rows
        for i, row in enumerate(rows):
            if row[piv]:
                r = self._eliminate(row, v, piv)
                if not p:
                    g = gcd(*r)  # positive, and the row's own pivot stays positive
                    if g != 1:
                        r = [x // g for x in r]
                rows[i] = r
        k = next((i for i, q in enumerate(self.pivots) if q > piv), len(self.pivots))
        rows.insert(k, v)
        self.pivots.insert(k, piv)
        return True

    def dim(self) -> int:
        return len(self.rows)


class PolyEchelon:
    """Reduced row-echelon basis of a subspace of Q(t1..tr)^n kept over the
    polynomial ring ``ring`` (a ``fields.PolyRing``), grown one
    vector at a time; a vector is a list of the ring's dense polynomials.
    Every row is primitive over the ring, the gcd of its entries being 1,
    and its pivot has a positive lex-leading coefficient.  Rows are
    replaced, never changed in place, so an added vector may be shared."""

    __slots__ = ("ring", "rows", "pivots")

    def __init__(self, ring: PolyRing) -> None:
        self.ring = ring
        self.rows: list = []
        self.pivots: list = []

    def _eliminate(self, v, row, j):
        """v with its entry at column j cleared by the pivot row ``row``."""
        ring = self.ring
        a, c = row[j], v[j]
        g = ring.gcd(a, c)
        if g != ring.one:
            div = ring.div_exact
            a, c = div(a, g), div(c, g)
        c = ring.neg(c)
        lincomb = ring.lincomb
        return [lincomb(a, x, c, y) for x, y in zip(v, row)]

    def _primitive(self, v):
        ring = self.ring
        g = ring.content(v)
        if g == ring.one:
            return v
        div = ring.div_exact
        return [div(x, g) if x else x for x in v]

    def add(self, v) -> bool:
        """Insert v; returns True if it enlarged the span."""
        for row, q in zip(self.rows, self.pivots):
            if v[q]:
                v = self._eliminate(v, row, q)
        for piv, x in enumerate(v):
            if x:
                break
        else:
            return False
        v = self._primitive(v)
        ring = self.ring
        if ring.lead(v[piv]) < 0:
            v = list(map(ring.neg, v))
        # keep the basis fully reduced, so coordinates sit at the pivots; a
        # row's own pivot is multiplied by v[piv] / gcd and stays positive
        rows = self.rows
        for i, row in enumerate(rows):
            if row[piv]:
                rows[i] = self._primitive(self._eliminate(row, v, piv))
        k = next((i for i, q in enumerate(self.pivots) if q > piv), len(self.pivots))
        rows.insert(k, v)
        self.pivots.insert(k, piv)
        return True

    def dim(self) -> int:
        return len(self.rows)


def invert_matrix(a, zero, one):
    """Field inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(a[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = one / aug[c][c]
        aug[c] = [x * inv if x else x for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                ci = aug[i][c]
                aug[i] = [aug[i][j] - ci * aug[c][j] for j in range(2 * n)]
    return [row[n:] for row in aug]
