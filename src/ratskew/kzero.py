"""Finitely presented commutative monoids and their universal groups.

A presentation lists generators and relations between nonnegative integer
combinations of them.  Two computations matter here:

* the universal enveloping group (free abelian group modulo the relation
  differences), returned in invariant-factor form with the image of every
  generator — this is the K-theory side;
* direct enumeration of the monoid itself by closing the generators under
  addition modulo the relations, which exposes the shape (conical? does the
  set of nonzero elements form a group?) that characterizes the monoids of
  purely infinite simple rings.

Enumeration rewrites with a single oriented relation, which is confluent
because each step is determined by the unique rule; richer presentations
are refused rather than half-supported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field


@dataclass(frozen=True)
class MonoidPresentation:
    gens: tuple
    relations: tuple  # pairs of exponent vectors (left, right)

    def __post_init__(self):
        k = len(self.gens)
        if k == 0:
            raise ValueError("need at least one generator")
        if len(set(self.gens)) != k:
            raise ValueError("duplicate generator names")
        rels = []
        for l, r in self.relations:
            if len(l) != k or len(r) != k:
                raise ValueError("relation arity mismatch")
            rels.append((tuple(l), tuple(r)))
        # canonical storage order so equal presentations compare equal
        object.__setattr__(self, "relations", tuple(sorted(rels)))

    def render(self) -> str:
        def side(v):
            parts = []
            for g, e in zip(self.gens, v):
                if e == 0:
                    continue
                parts.append(g if e == 1 else "%d%s" % (e, g))
            return "+".join(parts) if parts else "0"

        rels = ", ".join("%s=%s" % (side(l), side(r)) for l, r in self.relations)
        return "%s | %s" % (",".join(self.gens), rels)


_TERM = re.compile(r"^(\d*)\s*([A-Za-z_][A-Za-z_0-9']*)$")


def parse_presentation(text: str) -> MonoidPresentation:
    """Parse ``"I,P | I=2I+P, P=2P"`` style presentations.

    Sides are sums of ``<coeff><gen>`` terms; a bare ``0`` denotes the
    identity.  Raises ValueError with the offending fragment on bad input.
    """
    if "|" not in text:
        raise ValueError("expected 'gens | relations'")
    gpart, rpart = text.split("|", 1)
    gens = tuple(g.strip() for g in gpart.split(",") if g.strip())
    if not gens:
        raise ValueError("no generators in %r" % gpart)
    index = {g: i for i, g in enumerate(gens)}

    def parse_side(s: str):
        v = [0] * len(gens)
        s = s.strip()
        if s == "0":
            return tuple(v)
        for term in s.split("+"):
            term = term.strip()
            m = _TERM.match(term)
            if not m:
                raise ValueError("bad term %r" % term)
            c = int(m.group(1)) if m.group(1) else 1
            g = m.group(2)
            if g not in index:
                raise ValueError("unknown generator %r" % g)
            v[index[g]] += c
        return tuple(v)

    relations = []
    rpart = rpart.strip()
    if rpart:
        for rel in rpart.split(","):
            rel = rel.strip()
            if not rel:
                continue
            if "=" not in rel:
                raise ValueError("relation %r needs '='" % rel)
            lhs, rhs = rel.split("=", 1)
            relations.append((parse_side(lhs), parse_side(rhs)))
    return MonoidPresentation(gens, tuple(relations))


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------

# Row operations of the elimination log, replayed by smith_normal_form
_SWAP, _ADD, _NEG = 0, 1, 2


def _smith_eliminate(a):
    """Eliminate a copy of ``a`` to Smith form.  Returns D, V and the log of
    the row operations: ``(_SWAP, i, j)`` swaps rows i and j, ``(_ADD, i, j,
    c)`` adds c times row j to row i, ``(_NEG, i)`` negates row i.

    The pivot is the first entry of least absolute value in row-major order
    of the remaining block; a pass clears the pivot's column by row
    operations and its row by column operations, swapping in any nonzero
    remainder, until both are clear; an entry the pivot does not divide is
    then folded into the pivot's row and the block starts over.  The copy
    is changed in place, by the same operations as an elimination that
    rebuilds every row it changes, so D, V and the log are the same."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    # V by columns, so a column operation on V is one list operation
    vt = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    log = []

    t = 0
    while t < min(m, n):
        # pick the smallest nonzero pivot in the remaining block; nothing
        # beats an entry of absolute value 1, so the scan stops there
        best = None
        least = 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        i, j = best
        if i != t:
            d[t], d[i] = d[i], d[t]
            log.append((_SWAP, t, i))
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        while True:
            # clear the pivot column, then row, iterating while remainders
            # appear; rows t.. are zero left of column t, so the pivot row's
            # nonzero entries are all a row operation needs
            dirty = False
            piv, p = d[t], d[t][t]
            nz = [(j, y) for j, y in enumerate(piv) if y]
            for i in range(t + 1, m):
                row = d[i]
                if row[t]:
                    q = row[t] // p
                    if q:
                        for j, y in nz:
                            row[j] -= q * y
                        log.append((_ADD, i, t, -q))
                    if row[t]:
                        d[t], d[i] = row, piv
                        log.append((_SWAP, t, i))
                        piv, p = row, row[t]
                        nz = [(j, y) for j, y in enumerate(piv) if y]
                        dirty = True
            # column t changes only by a column swap, so its nonzero rows are
            # collected once per pass and again after each swap
            rows = [row for row in d if row[t]]
            for j in range(t + 1, n):
                if piv[j]:
                    q = piv[j] // p
                    if q:
                        for row in rows:
                            row[j] -= q * row[t]
                        vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                    if piv[j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        vt[t], vt[j] = vt[j], vt[t]
                        p = piv[t]
                        rows = [row for row in d if row[t]]
                        dirty = True
            # a pass with no remainder swapped in leaves both clear
            if not dirty:
                break
        # divisibility: fold any bad entry into the pivot's row and repeat;
        # a unit pivot divides everything
        if p != 1 and p != -1:
            bad = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1:])), None)
            if bad is not None:
                for j, y in enumerate(d[bad]):
                    piv[j] += y
                log.append((_ADD, t, bad, 1))
                continue
        if p < 0:
            piv[t] = -p  # the rest of the pivot row is clear
            log.append((_NEG, t))
        t += 1
    return d, [list(row) for row in zip(*vt)], log


def smith_normal_form(a):
    """D, U, V with U*a*V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... and nonnegative entries.

    The elimination works on D and V only and logs its row operations; U
    is that log replayed onto the identity, so a caller that needs only D
    and V (:func:`grothendieck_group`) never builds the m x m matrix.  Rows
    are never reordered, deduplicated or dropped before the elimination:
    the pivots, and so the column operations that make up V, depend on the
    row order, and V gives the generator images of the universal group."""
    m = len(a)
    d, v, log = _smith_eliminate(a)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for op in log:
        if op[0] == _SWAP:
            _, i, j = op
            u[i], u[j] = u[j], u[i]
        elif op[0] == _ADD:
            _, dst, src, c = op
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        else:
            u[op[1]] = [-x for x in u[op[1]]]
    return d, u, v


@dataclass(frozen=True)
class AbGroup:
    """Invariant-factor description: factors (each 0 or >= 2, finite parts
    in divisibility order, zeros last) plus the image of each generator."""

    factors: tuple
    images: dict  # generator name -> coordinate tuple

    def order(self):
        n = 1
        for f in self.factors:
            if f == 0:
                return None
            n *= f
        return n

    def element_order(self, coords):
        from math import gcd
        o = 1
        for c, f in zip(coords, self.factors):
            if f == 0:
                if c != 0:
                    return None
                continue
            c %= f
            o_here = f // gcd(f, c) if c else 1
            o = o * o_here // gcd(o, o_here)
        return o

    def render(self) -> str:
        if not self.factors:
            return "0"
        return " x ".join("Z" if f == 0 else "Z/%d" % f for f in self.factors)

    def to_json(self):
        return {
            "factors": list(self.factors),
            "images": {g: list(c) for g, c in self.images.items()},
        }


def grothendieck_group(p: MonoidPresentation) -> AbGroup:
    """Universal group of the monoid: free abelian on the generators modulo
    the relation differences l - r, in invariant-factor coordinates, as
    :func:`_quotient_group` reads them off."""
    k = len(p.gens)
    return _quotient_group(p.gens, [[l[i] - r[i] for i in range(k)] for l, r in p.relations])


def _quotient_group(gens, rows) -> AbGroup:
    """Free abelian group on ``gens`` modulo the span of ``rows`` (one entry
    per generator), read off D and V of the rows' Smith form."""
    k = len(gens)
    # with no relations, one zero row leaves D zero and V the identity
    d, vmat, _ = _smith_eliminate(rows or [[0] * k])
    diag = [d[i][i] if i < len(d) else 0 for i in range(k)]
    # coordinates of generator j in the new basis: row j of V
    keep = [i for i in range(k) if diag[i] != 1]
    # finite factors first (SNF order), then the free ones
    keep.sort(key=lambda i: (diag[i] == 0, i))
    factors = []
    images = {g: [] for g in gens}
    for i in keep:
        f = diag[i]
        factors.append(f)
        for j, g in enumerate(gens):
            c = vmat[j][i]
            images[g].append(c % f if f else c)
    # normalize free coordinates so the first generator hitting one is positive
    for pos, f in enumerate(factors):
        if f != 0:
            continue
        for g in gens:
            c = images[g][pos]
            if c:
                if c < 0:
                    for h in gens:
                        images[h][pos] = -images[h][pos]
                break
    return AbGroup(tuple(factors), {g: tuple(c) for g, c in images.items()})


# ---------------------------------------------------------------------------
# direct enumeration
# ---------------------------------------------------------------------------

class UnsupportedPresentation(ValueError):
    pass


@dataclass
class MonoidTable:
    elements: list  # normal-form exponent vectors; index 0 is the identity
    table: list  # table[i][j] = index of elements[i]+elements[j], or None
    complete: bool
    overflow: bool
    bound: int

    def size(self) -> int:
        return len(self.elements)

    def add(self, i: int, j: int):
        return self.table[i][j]


def _orient(relations):
    """Single-relation rewriting: orient the relation so rewriting strictly
    decreases (total degree, lex)."""
    rules = [(l, r) for l, r in relations if l != r]
    if len(rules) > 1:
        raise UnsupportedPresentation(
            "enumeration handles at most one nontrivial relation; got %d" % len(rules)
        )
    if not rules:
        return None
    l, r = rules[0]
    if (sum(l), l) < (sum(r), r):
        l, r = r, l
    return l, r


def _normal_form(rule, v):
    """Rewrite the exponent vector v with the oriented rule (big, small), or
    leave it as it is when ``rule`` is None.

    Rewriting v >= big gives v + (small - big) and repeats while v >= big.
    A coordinate with big_c <= small_c never drops below big_c, so the
    rewrites stop at the first q where some coordinate with big_c > small_c
    has v_c - q*(big_c - small_c) < big_c: q = 1 + min over those
    coordinates of (v_c - big_c) // (big_c - small_c).  ``_orient`` leaves
    at least one such coordinate."""
    v = tuple(v)
    if rule is None:
        return v
    big, small = rule
    q = None
    for a, b, c in zip(v, big, small):
        if a < b:
            return v
        if b > c:
            k = (a - b) // (b - c)
            if q is None or k < q:
                q = k
    q += 1
    return tuple(a + q * (c - b) for a, b, c in zip(v, big, small))


def monoid_enumerate(p: MonoidPresentation, bound: int = 512) -> MonoidTable:
    """Close the generators under addition, reducing every sum to its normal
    form.  Stops with ``overflow`` where a new element, a generator included,
    would make more than ``bound``; the partial table keeps None for sums
    that left the enumerated set.  A bound below 1 is refused (ValueError)."""
    if bound < 1:
        raise ValueError("enumeration bound must be at least 1, got %d" % bound)
    k = len(p.gens)
    rule = _orient(p.relations)
    zero = _normal_form(rule, (0,) * k)
    elems = [zero]
    index = {zero: 0}
    gens = []
    overflow = False
    for j in range(k):
        v = _normal_form(rule, tuple(1 if i == j else 0 for i in range(k)))
        if v not in index:
            if len(elems) >= bound:
                overflow = True
                break
            index[v] = len(elems)
            elems.append(v)
        gens.append(index[v])

    frontier = list(range(len(elems)))
    while frontier and not overflow:
        new = []
        for i in frontier:
            for g in gens:
                s = _normal_form(rule, tuple(a + b for a, b in zip(elems[i], elems[g])))
                if s not in index:
                    if len(elems) >= bound:
                        overflow = True
                        break
                    index[s] = len(elems)
                    elems.append(s)
                    new.append(index[s])
            if overflow:
                break
        frontier = new

    # addition is commutative: normalise each unordered pair once
    N = len(elems)
    table = [[None] * N for _ in range(N)]
    for i in range(N):
        ei, row = elems[i], table[i]
        for j in range(i, N):
            s = index.get(_normal_form(rule, tuple(a + b for a, b in zip(ei, elems[j]))))
            row[j] = s
            table[j][i] = s
    complete = not overflow and all(all(e is not None for e in row) for row in table)
    return MonoidTable(elems, table, complete, overflow, bound)


@dataclass
class MonoidShapeReport:
    """What the addition table says about the monoid, with ``complete``
    telling whether the verdicts cover the whole monoid or only the
    enumerated fragment."""

    size: int
    complete: bool
    conical: bool
    nonzero_closed: bool
    simple: bool
    nonzero_is_group: bool
    group: AbGroup | None
    generator_orders_match: bool | None
    matches_group_side: bool | None
    notes: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "size": self.size,
            "complete": self.complete,
            "conical": self.conical,
            "nonzero_closed": self.nonzero_closed,
            "simple": self.simple,
            "nonzero_is_group": self.nonzero_is_group,
            "group": self.group.to_json() if self.group else None,
            "generator_orders_match": self.generator_orders_match,
            "matches_group_side": self.matches_group_side,
            "notes": list(self.notes),
        }


def analyze_pisr_shape(p: MonoidPresentation, bound: int = 512) -> MonoidShapeReport:
    """Shape flags for the enumerated monoid and, when the nonzero part is a
    group, its invariant factors compared against the universal group.  The
    table group goes from its relation rows to :func:`_quotient_group`, the
    helper :func:`grothendieck_group` uses, with no presentation between."""
    tbl = monoid_enumerate(p, bound)
    N = tbl.size()
    notes = []
    if tbl.overflow:
        notes.append("enumeration stopped at bound %d; verdicts cover the fragment only" % tbl.bound)
    nz = [i for i in range(N) if i != 0]

    conical = all(tbl.table[i][j] != 0 for i in nz for j in nz)
    nonzero_closed = conical  # a+b = 0 with a,b nonzero is the only way out

    # simple: every nonzero y lies below some positive multiple of every
    # nonzero x, i.e. some n*x equals y plus something (within the table)
    rows = [set(row) - {None} for row in tbl.table]
    simple = True
    for i in nz:
        mults = set()
        cur = i
        while cur is not None and cur not in mults:
            mults.add(cur)
            cur = tbl.table[cur][i]
        for j in nz:
            if mults.isdisjoint(rows[j]):
                simple = False
                break
        if not simple:
            break

    ident = None
    for e in nz:
        if all(tbl.table[e][x] in (x, None) for x in nz) and any(
            tbl.table[e][x] == x for x in nz
        ):
            # candidate; confirm on every defined entry
            if all(tbl.table[e][x] == x for x in nz if tbl.table[e][x] is not None):
                ident = e
                break
    nonzero_is_group = False
    group = None
    gen_match = None
    matches = None
    if ident is not None and not tbl.overflow and conical:
        has_inv = all(
            any(tbl.table[x][y] == ident for y in nz) for x in nz
        )
        if has_inv and len(nz) > 64:
            nonzero_is_group = True
            notes.append("nonzero part is a group of order %d; too large to re-present, comparison skipped" % len(nz))
        elif has_inv:
            nonzero_is_group = True
            # present the group on the nonzero elements, x at position x - 1:
            # rows e_x + e_y - e_(x+y) for all pairs and e_ident, in the order
            # MonoidPresentation sorts their (left, right) pairs, as the order
            # steers V.  That is: smaller position a descending, e_ident first
            # at its a, then the larger position b descending, each b > a twice
            k = len(nz)
            rels = []
            for a in reversed(range(k)):
                if a == ident - 1:
                    rels.append([1 if j == a else 0 for j in range(k)])
                tab = tbl.table[a + 1]
                for b in reversed(range(a, k)):
                    row = [0] * k
                    row[a] += 1
                    row[b] += 1
                    row[tab[b + 1] - 1] -= 1
                    rels.extend([row] if b == a else [row, list(row)])
            group = _quotient_group(tuple("e%d" % i for i in nz), rels)
            # compare generator orders with the universal-group images
            ug = grothendieck_group(p)
            matches = group.factors == ug.factors
            gen_match = True
            rule = _orient(p.relations)
            for j, g in enumerate(p.gens):
                # normal form of the generator inside the table
                v = _normal_form(rule, (1 if i == j else 0 for i in range(len(p.gens))))
                gi = tbl.elements.index(v) if v in tbl.elements else None
                if gi is None or gi == 0:
                    continue
                o_tab = group.element_order(group.images["e%d" % gi])
                o_grp = ug.element_order(ug.images[g])
                if o_tab != o_grp:
                    gen_match = False
            matches = matches and gen_match
    return MonoidShapeReport(
        size=N,
        complete=tbl.complete,
        conical=conical,
        nonzero_closed=nonzero_closed,
        simple=simple,
        nonzero_is_group=nonzero_is_group,
        group=group,
        generator_orders_match=gen_match,
        matches_group_side=matches,
        notes=notes,
    )

