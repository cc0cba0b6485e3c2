"""Dense exact linear algebra over any of the scalar domains, and the
elimination of the span kernel.

Matrices are lists of lists of scalars, vectors are lists.  Everything here
is plain Gaussian elimination; sizes stay small (tens), exactness is what
matters.

One ``Echelon`` keeps a fully reduced row-echelon basis of a growing
subspace, which is the whole engine behind minimizing linear
representations: the coordinates of a vector of the span in that basis
are its entries at the pivot columns, read off with no further
elimination.  It holds no field objects at all; it is the elimination of
the one span kernel of ``linrep``, over the kernel's coefficient ring:
Z for Q (``fields.ZZ``), Z/p for F_p (``fields.zmod_ring(p)``) and
Z[t1..tr] for Q(t1..tr) (``fields.poly_ring(r)``).  It is written once,
on the ring's operations, and looks at no field.  The elimination is
fraction-free (Bareiss, *Math. Comp.* 22, 1968): a row combination
``a*v - c*row`` with the gcd of ``a`` and ``c`` removed, and the gcd of
a new row's entries divided out once.  A subspace has exactly one reduced
row-echelon basis, and scaling a row by a nonzero factor does not change
the space it spans, so the basis is that unique one with row i scaled by
its pivot entry: dividing row i by ``rows[i][pivots[i]]`` gives back the
pivot-1 rows of elimination on field values.  Rows are dense lists of
ring elements; the kernel keeps its letter matrices in sparse columns.
An insert returns the row it stored, so a search goes on from the reduced
primitive row, and its raw products need no content pass of their own;
rows are replaced, never written to, so an added vector, and a returned
row, may be shared.
No field-value copy is kept: ``tests/test_la.py`` checks the basis
against Gaussian elimination on field values, and ``tests/test_linrep.py``
checks the kernel against the Hankel rank over Q and F_p, and by
specialisation from Q(t1..tr) to Q and from Q to F_p.  The rings and
their gcds live in ``fields``; this module only calls them.
"""

from __future__ import annotations

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
    """The product a*b.  A slot that no term reached yet holds ``zero``
    itself, and the first term is stored there as it is, not added to
    zero; entries are never mutated, so they may be shared."""
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
                x = bl[j]
                if x:
                    s = oi[j]
                    oi[j] = c * x if s is zero else s + c * x
    return out


def identity(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def dot(u, v, zero):
    return sum((u[i] * v[i] for i in range(len(u)) if u[i] and v[i]), zero)


class Echelon:
    """Reduced row-echelon basis of a subspace of K^n kept over a
    coefficient ring ``ring`` of K (a ``fields.PolyRing``: Z, Z/p or
    Z[t1..tr]), grown one vector at a time; a vector is a list of the
    ring's elements.  Every row is primitive over the ring, the gcd of its
    entries being 1, and its pivot has a positive lead; over Z/p every gcd
    is 1, so a row keeps whatever nonzero pivot it gets.  Rows are
    replaced, never changed in place, so an added vector, and a row that
    ``add`` returns, may be shared."""

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
            a, c = ring.div_exact(a, g), ring.div_exact(c, g)
        return ring.comb(a, v, c, row)

    def add(self, v):
        """Insert v.  Returns the row stored for it, v reduced by the basis
        and made primitive with a positive pivot lead, if it enlarged the
        span, else None.  That row differs from v by a nonzero factor plus
        a combination of the earlier rows, so a caller may go on with it in
        place of v: a search multiplies it, reduced and primitive, not the
        raw vector."""
        for row, q in zip(self.rows, self.pivots):
            if v[q]:
                v = self._eliminate(v, row, q)
        for piv, x in enumerate(v):
            if x:
                break
        else:
            return None
        ring = self.ring
        content, quo, one = ring.content, ring.quo, ring.one
        g = content(v)
        if ring.lead(v[piv]) < 0:
            g = ring.neg(g)
        if g != one:
            v = quo(v, g)
        # keep the basis fully reduced, so coordinates sit at the pivots; a
        # row's own pivot is multiplied by v[piv] / gcd and stays positive
        rows = self.rows
        for i, row in enumerate(rows):
            if row[piv]:
                r = self._eliminate(row, v, piv)
                g = content(r)
                rows[i] = r if g == one else quo(r, g)
        k = next((i for i, q in enumerate(self.pivots) if q > piv), len(self.pivots))
        rows.insert(k, v)
        self.pivots.insert(k, piv)
        return v

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
