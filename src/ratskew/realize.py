"""Concrete matrix models for group maps between corner algebras.

Target data: a cyclic group tag (0 for the integers, otherwise an order
m >= 2) at each end and a multiplier l.  The map  Z_n -> Z_m,  1 -> l  is
realized by explicit matrices over a skew extension: an idempotent E, and
families A_i, B_j satisfying

    A_i B_j = delta_ij E          (always)
    sum_i B_i A_i = E             (square cases only)
    E A_i E = A_i,  E B_j E = B_j (corner containment)

Four constructions cover the possible tag patterns:

  case 1:  n >= 2, m >= 2, 1 <= l <= m, m | l*n.   l x l matrices with a
           scalar t on the diagonal and compound words built from letter 0
           padding; the count h = l*n/m balances the two unit sums.
  case 2:  n = 0, l >= 1 (m = 0 or m >= 2).  l x l scalar-diagonal matrices
           x_0 x_1^i and y_1^j y_0 — a right-infinite family with no unit
           sum imposed.
  case 3:  n = 0, l <= 0, m = 0.  1 x 1 matrices inside the corner of the
           idempotent cutting out |l|+1 letter pairs.
  case 4:  n >= 2, m = 0, l = 0.  (n+1) x (n+1) matrices mixing the corner
           idempotent with single letters; both unit sums hold on the nose.

All coefficients are polynomials (possibly over a rational function field),
so every verification is exact, and it runs over polynomial coefficients
whichever backend built the matrices; cases 1 and 2-with-m>=2 compare
modulo the ideal of e, the others compare literally.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import Field, FunctionField, QQ
from .freealg import FreeElem
from .la import mat_mul
from .linrep import LinRep, SeriesMatrix, invert_matrix_series
from .skew import CoeffDomain, SkewElem, SkewRing, t_equal
from .words import refuse_unknown_keys


# The backends a generator certificate may name: those ``realize build``
# emits.  Over ``trunc`` every identity would hold only in a window, which
# a certificate's plain ``ok`` cannot record.
GENERATOR_BACKENDS = ("free", "rat")

# The top-level keys of a generator and of a sigma certificate, those their
# ``to_json`` writes (a test holds each pair of lists equal).
GENERATOR_KEYS = frozenset(("kind", "spec", "backend", "field", "ring_n", "quotient", "size", "E", "A", "B"))
SIGMA_CERT_KEYS = frozenset(("kind", "field", "spec", "p", "size", "ok_right", "ok_left", "matrix", "inverse"))


def _valid_tag(n: int) -> bool:
    return n == 0 or n >= 2


@dataclass(frozen=True)
class HomSpec:
    """A validated, canonicalized map  Z_n -> Z_m,  1 -> l."""

    n: int
    m: int
    l: int
    case: int
    h: int | None
    size: int

    def label(self) -> str:
        return "Z_%s -> Z_%s : 1 -> %d (case %d)" % (
            self.n or "inf", self.m or "inf", self.l, self.case)

    def to_json(self):
        return {"n": self.n, "m": self.m, "l": self.l, "case": self.case,
                "h": self.h, "size": self.size}


def hom_spec(n: int, m: int, l: int) -> HomSpec:
    """Validate tags, canonicalize the multiplier, dispatch to a case.

    For m >= 2 the multiplier is reduced to 1..m (the zero map is
    represented by m itself, keeping the matrix size positive).
    """
    if not _valid_tag(n) or not _valid_tag(m):
        raise ValueError("tags must be 0 or >= 2; got n=%d m=%d" % (n, m))
    if m >= 2:
        l = ((l - 1) % m) + 1
    if n >= 2 and m >= 2:
        if (l * n) % m:
            raise ValueError(
                "map not well defined: %d*%d != 0 mod %d" % (l, n, m))
        return HomSpec(n, m, l, 1, l * n // m, l)
    if n == 0 and l >= 1:
        return HomSpec(n, m, l, 2, None, l)
    if n == 0:
        if m != 0:
            raise AssertionError("canonical multiplier should be positive")
        return HomSpec(n, m, l, 3, None, 1)
    # n >= 2, m = 0
    if l != 0:
        raise ValueError(
            "map not well defined: order-%d generator cannot hit %d in the integers" % (n, l))
    return HomSpec(n, m, 0, 4, None, n + 1)


# ---------------------------------------------------------------------------
# matrices over a skew ring
# ---------------------------------------------------------------------------

def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_identity(ring: SkewRing, size: int):
    return [[ring.one() if i == j else ring.zero() for j in range(size)]
            for i in range(size)]


def mat_zero(ring: SkewRing, size: int):
    return [[ring.zero() for _ in range(size)] for _ in range(size)]


@dataclass
class GeneratorMatrices:
    spec: HomSpec
    ring: SkewRing
    quotient: bool  # compare mod the ideal of e, or literally
    size: int
    E: list
    A: list  # list of size x size matrices
    B: list

    def eq(self, p, q) -> bool:
        """Whether the matrices p and q are equal entry by entry, modulo
        the ideal of e when ``quotient`` is set, literally otherwise.

        Each pair of entries is compared literally first, and only a pair
        that differs literally goes to ``t_equal``: literal equality is
        equality, so it implies equality modulo the ideal.  Over the
        ``free`` backend, which :func:`verify_generators` uses, every
        coefficient is a canonical word -> scalar dict, so the literal
        test costs no reduction."""
        for rp, rq in zip(p, q):
            for x, y in zip(rp, rq):
                if x != y and not (self.quotient and t_equal(x, y)):
                    return False
        return True

    def to_json(self):
        def mat(m):
            return [[el.to_json() for el in row] for row in m]

        return {
            "kind": "generator_matrices",
            "spec": self.spec.to_json(),
            "backend": self.ring.domain.kind,
            "field": self.ring.domain.field.name,
            "ring_n": self.ring.n,
            "quotient": self.quotient,
            "size": self.size,
            "E": mat(self.E),
            "A": [mat(a) for a in self.A],
            "B": [mat(b) for b in self.B],
        }


def _ring_n(spec: HomSpec):
    """The top letter index of the ring a spec's matrices live in: the
    target order m in case 1, and in case 2 with m >= 2, where the
    identities hold modulo the ideal of e; otherwise None, a growing
    alphabet with literal comparison."""
    return spec.m if spec.case in (1, 2) and spec.m >= 2 else None


def generator_matrices_from_json(obj) -> GeneratorMatrices:
    """The matrices of a generator certificate, checked against its spec.

    The backend must be one of :data:`GENERATOR_BACKENDS`.  The spec is
    validated again by :func:`hom_spec`, and the recorded ``size``,
    ``ring_n`` and ``quotient`` must be the ones the spec's case builds.  Every matrix must be size x size, with as many A's as B's, at
    least one pair, and exactly n + 1 pairs in cases 1 and 4.  A top-level
    key outside :data:`GENERATOR_KEYS` is refused, not passed over.  A
    certificate that breaks any of these raises ValueError."""
    from .fields import field_from_name

    refuse_unknown_keys(obj, GENERATOR_KEYS, "generator certificate")
    if obj["backend"] not in GENERATOR_BACKENDS:
        raise ValueError("backend %r is not one of %s" % (obj["backend"], ", ".join(GENERATOR_BACKENDS)))
    sj = obj["spec"]
    if not isinstance(sj, dict) or any(type(sj.get(k)) is not int for k in "nml"):
        raise ValueError("the spec must hold integers n, m and l, got %r" % (sj,))
    spec = hom_spec(sj["n"], sj["m"], sj["l"])
    if sj != spec.to_json():
        raise ValueError("spec %r is not the validated %r" % (sj, spec.to_json()))
    ring_n = _ring_n(spec)
    shape = {"size": spec.size, "ring_n": ring_n, "quotient": ring_n is not None}
    for key, want in shape.items():
        if type(obj[key]) is not type(want) or obj[key] != want:
            raise ValueError("%s is %r, but the spec %s builds %r" % (key, obj[key], spec.label(), want))
    size, A, B = spec.size, obj["A"], obj["B"]
    if not (isinstance(A, list) and isinstance(B, list) and len(A) == len(B) >= 1):
        raise ValueError("A and B must be nonempty lists of equal length")
    if spec.case in (1, 4) and len(A) != spec.n + 1:
        raise ValueError("%s needs %d A/B pairs, got %d" % (spec.label(), spec.n + 1, len(A)))
    ring = SkewRing(CoeffDomain(obj["backend"], field_from_name(obj["field"])), ring_n)

    def mat(m, name):
        if not (isinstance(m, list) and len(m) == size
                and all(isinstance(row, list) and len(row) == size for row in m)):
            raise ValueError("%s is not a %d x %d matrix" % (name, size, size))
        return [[SkewElem.from_json(ring, el) for el in row] for row in m]

    return GeneratorMatrices(
        spec, ring, ring_n is not None, size, mat(obj["E"], "E"),
        [mat(a, "A%d" % i) for i, a in enumerate(A)], [mat(b, "B%d" % i) for i, b in enumerate(B)],
    )


def build_generators(spec: HomSpec, field: Field | None = None,
                     count: int = 4, backend: str = "rat") -> GeneratorMatrices:
    """The matrix families for a validated spec.

    ``count`` bounds how many of the (infinitely many) A_i/B_j pairs are
    materialized in cases 2 and 3; cases 1 and 4 always build all n+1.
    Entries are skew elements over the rational-series backend by default;
    ``backend="free"`` builds the same matrices with plain polynomial
    coefficients (every entry is polynomial), handy as a cross-check.
    """
    if spec.case in (1, 4):
        field = field or FunctionField(1)
        if not isinstance(field, FunctionField):
            raise ValueError("cases 1 and 4 need an invertible scalar t")
    else:
        field = field or QQ
    dom = CoeffDomain(backend, field)
    builder = {1: _case1, 2: _case2, 3: _case3, 4: _case4}[spec.case]
    return builder(spec, field, dom, count)


def _case1(spec: HomSpec, field, dom, count) -> GeneratorMatrices:
    n, m, l, h = spec.n, spec.m, spec.l, spec.h
    ring = SkewRing(dom, n=_ring_n(spec))
    t = field.var(0)
    tinv = field.one() / t

    # compound letter pairs indexed 0..h*m, built from blocks of m letters
    # padded by letter 0; adjacent unit sums telescope.
    def xw(kappa):
        if kappa == 0:
            return (0,) * h
        b, i = divmod(kappa - 1, m)
        return (i + 1,) + (0,) * (h - 1 - b)

    def yw(kappa):
        if kappa == 0:
            return (0,) * h
        b, i = divmod(kappa - 1, m)
        return (0,) * (h - 1 - b) + (i + 1,)

    E = mat_identity(ring, l)
    A = []
    B = []
    a0 = mat_zero(ring, l)
    b0 = mat_zero(ring, l)
    for al in range(l):
        a0[al][al] = ring.scalar(t) if al < l - 1 else ring.x_word(xw(0))
        b0[al][al] = ring.scalar(tinv) if al < l - 1 else ring.yword(yw(0))
    A.append(a0)
    B.append(b0)
    for i in range(1, n + 1):
        ai = mat_zero(ring, l)
        bi = mat_zero(ring, l)
        for al in range(l):
            ai[al][l - 1] = ring.x_word(xw((i - 1) * l + al + 1))
            bi[l - 1][al] = ring.yword(yw((i - 1) * l + al + 1))
        A.append(ai)
        B.append(bi)
    return GeneratorMatrices(spec, ring, ring.n is not None, l, E, A, B)


def _case2(spec: HomSpec, field, dom, count) -> GeneratorMatrices:
    l = spec.l
    ring = SkewRing(dom, n=_ring_n(spec))
    E = mat_identity(ring, l)
    A = []
    B = []
    for i in range(count):
        ai = ring.x_word((0,) + (1,) * i)
        bi = ring.yword((1,) * i + (0,))
        A.append([[ai if r == c else ring.zero() for c in range(l)] for r in range(l)])
        B.append([[bi if r == c else ring.zero() for c in range(l)] for r in range(l)])
    return GeneratorMatrices(spec, ring, ring.n is not None, l, E, A, B)


def _case3(spec: HomSpec, field, dom, count) -> GeneratorMatrices:
    depth = -spec.l  # letters 0..depth are cut out by the idempotent
    ring = SkewRing(dom, n=None)
    e = ring.e(top=depth)
    E = [[e]]
    A = [[[e * ring.x(depth + 1 + i)]] for i in range(count)]
    B = [[[ring.y(depth + 1 + j) * e]] for j in range(count)]
    return GeneratorMatrices(spec, ring, False, 1, E, A, B)


def _case4(spec: HomSpec, field, dom, count) -> GeneratorMatrices:
    n = spec.n
    ring = SkewRing(dom, n=None)
    t = field.var(0)
    tinv = field.one() / t
    e = ring.e(top=n)
    size = n + 1
    E = mat_zero(ring, size)
    E[0][0] = e
    for i in range(1, size):
        E[i][i] = ring.one()
    te = e.scale(t)
    tie = e.scale(tinv)
    A = []
    B = []
    a0 = mat_zero(ring, size)
    b0 = mat_zero(ring, size)
    a0[0][0] = te
    b0[0][0] = tie
    for i in range(1, size):
        a0[i][i] = ring.x(0)
        b0[i][i] = ring.y(0)
    A.append(a0)
    B.append(b0)
    for i in range(1, n + 1):
        ai = mat_zero(ring, size)
        bi = mat_zero(ring, size)
        ai[0][i] = te
        bi[i][0] = tie
        for al in range(1, size):
            ai[al][i] = ring.x(al)
            bi[i][al] = ring.y(al)
        A.append(ai)
        B.append(bi)
    return GeneratorMatrices(spec, ring, False, size, E, A, B)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    ok: bool
    checks: list  # (name, bool)

    def failed(self):
        return [name for name, ok in self.checks if not ok]

    def to_json(self):
        return {"ok": self.ok, "checks": [[n, o] for n, o in self.checks]}


def _over_polynomials(g: GeneratorMatrices) -> GeneratorMatrices:
    """g with every ``rat`` coefficient replaced by the polynomial it is
    (:meth:`LinRep.to_free`), over ``CoeffDomain("free", field)`` with the
    same top letter index; a g over any other backend as it is.

    A coefficient with infinite support raises ValueError, and so does one
    with more than (letters + 1) * dim prefixes of support words (the
    ``bounded`` listing).  Every construction's coefficient is a single
    word, with exactly dim prefixes.  The bound keeps the words of each
    polynomial fewer than the entries of the series it came from, so the
    listing and every product of the checks stay polynomial in the size of
    the certificate, where a short certificate could otherwise spell
    (x0 + x1)^40 in dim 41 and make them run through 2^40 words."""
    dom = g.ring.domain
    if dom.kind != "rat":
        return g
    ring = SkewRing(CoeffDomain("free", dom.field), g.ring.n)

    def mat(m):
        return [[SkewElem(ring, {w: r.to_free(bounded=True) for w, r in el.data.items()}) for el in row]
                for row in m]

    return GeneratorMatrices(g.spec, ring, g.quotient, g.size, mat(g.E),
                             [mat(a) for a in g.A], [mat(b) for b in g.B])


def verify_generators(g: GeneratorMatrices) -> VerifyReport:
    """Exercise every defining identity the construction promises.

    The identities are checked over polynomial coefficients: a ``rat`` g
    is first mapped to the same matrices over the ``free`` backend
    (:func:`_over_polynomials`).  The inclusion of polynomials into
    rational series is injective and respects +, *, scale, tau and every
    delta_i, so each product, each quotient descent and each verdict is the
    one rational-series arithmetic gives, with no reduction.  A ``rat``
    coefficient that is not a polynomial, or one with too large a support
    for its dim, raises ValueError; no construction emits one.

    Each identity is compared by :meth:`GeneratorMatrices.eq`, which sends
    to the quotient test only the entries that differ literally; most
    entries of a product that holds (two zeros, or two equal words) never
    reach it."""
    g = _over_polynomials(g)
    z = g.ring.zero()
    checks = [("E*E = E", g.eq(mat_mul(g.E, g.E, z), g.E))]
    zero = mat_zero(g.ring, g.size)
    for i in range(len(g.A)):
        for j in range(len(g.B)):
            want = g.E if i == j else zero
            name = "A%d*B%d = %s" % (i, j, "E" if i == j else "0")
            checks.append((name, g.eq(mat_mul(g.A[i], g.B[j], z), want)))
    if g.spec.case in (1, 4):
        acc = mat_zero(g.ring, g.size)
        for i in range(len(g.A)):
            acc = mat_add(acc, mat_mul(g.B[i], g.A[i], z))
        checks.append(("sum B_i*A_i = E", g.eq(acc, g.E)))
    for i in range(len(g.A)):
        checks.append(("E*A%d*E = A%d" % (i, i),
                       g.eq(mat_mul(mat_mul(g.E, g.A[i], z), g.E, z), g.A[i])))
        checks.append(("E*B%d*E = B%d" % (i, i),
                       g.eq(mat_mul(mat_mul(g.E, g.B[i], z), g.E, z), g.B[i])))
    return VerifyReport(all(ok for _, ok in checks), checks)


# ---------------------------------------------------------------------------
# invertibility spot check for perturbations of the identity
# ---------------------------------------------------------------------------

@dataclass
class SigmaCert:
    spec: HomSpec
    p_text: str
    size: int
    ok_right: bool
    ok_left: bool
    matrix: object  # SeriesMatrix, the inverted I + p(A)
    inverse: object  # SeriesMatrix

    @property
    def ok(self) -> bool:
        return self.ok_right and self.ok_left

    def to_json(self):
        return {
            "kind": "sigma_cert",
            "field": self.matrix.field.name,
            "spec": self.spec.to_json(),
            "p": self.p_text,
            "size": self.size,
            "ok_right": self.ok_right,
            "ok_left": self.ok_left,
            "matrix": self.matrix.to_json(),
            "inverse": self.inverse.to_json(),
        }


def spot_check_sigma_prime(g: GeneratorMatrices, pmat) -> SigmaCert:
    """Invert  I + p(A)  over the series completion, p a polynomial (or an
    r x r matrix of polynomials) in noncommuting block symbols with zero
    constant term.

    Only cases 1 and 2 qualify: their A entries live in the coefficient
    ring (no y letters), so the whole block matrix embeds into matrices
    over series, where the diagonal-plus-augmentation split drives the
    inversion; both one-sided products are verified exactly.  Every A_i is
    checked to be y-free, but only the A_i whose symbol p uses is
    converted to a series matrix, once, on its first use.
    """
    if g.spec.case not in (1, 2):
        raise ValueError("spot check needs y-free generator entries (cases 1 and 2)")
    if any(el.y_degree() for a in g.A for row in a for el in row):
        raise ValueError("generator entry has a y letter")
    field = g.ring.domain.field
    if isinstance(pmat, FreeElem):
        pmat = [[pmat]]
    r = len(pmat)
    sz = g.size

    def to_series_matrix(mat) -> SeriesMatrix:
        entries = []
        for row in mat:
            out_row = []
            for el in row:
                coeff = el.data.get(())
                if coeff is None:
                    out_row.append(LinRep.zero(field))
                elif isinstance(coeff, LinRep):
                    out_row.append(coeff)
                else:
                    out_row.append(LinRep.from_free(coeff))
            entries.append(out_row)
        return SeriesMatrix.from_entries(field, entries)

    gens: dict = {}  # symbol -> the series matrix of its A, on first use
    eye = SeriesMatrix.identity(field, sz)

    blocks = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            p = pmat[i][j]
            if p.tau():
                raise ValueError("perturbation entries need zero constant term")
            acc = None
            for w in sorted(p.coeffs, key=lambda w: (len(w), w)):
                c = p.coeffs[w]
                cur = eye
                for letter in w:
                    if letter >= len(g.A):
                        raise ValueError("symbol %d has no generator" % letter)
                    gen = gens.get(letter)
                    if gen is None:
                        gen = gens[letter] = to_series_matrix(g.A[letter])
                    cur = cur * gen
                cur = cur.scale(c)
                acc = cur if acc is None else acc + cur
            blocks[i][j] = acc

    entries = []
    for i in range(r):
        for a in range(sz):
            row = []
            for j in range(r):
                blk = blocks[i][j]
                for b in range(sz):
                    base = LinRep.one(field) if (i == j and a == b) else LinRep.zero(field)
                    add = blk.entry(a, b) if blk is not None else LinRep.zero(field)
                    row.append(base + add)
            entries.append(row)
    big = SeriesMatrix.from_entries(field, entries)
    inv, ok_r, ok_l = invert_matrix_series(big)
    ptxt = "; ".join(
        ",".join(pmat[i][j].render("z") for j in range(r)) for i in range(r))
    return SigmaCert(g.spec, ptxt, r * sz, ok_r, ok_l, big, inv)


# ---------------------------------------------------------------------------
# chains of group maps
# ---------------------------------------------------------------------------

@dataclass
class StepPlan:
    index: int
    specs: list  # specs[i][j] for source component i, target component j
    field_label: str
    errors: list = dc_field(default_factory=list)

    def to_json(self):
        return {
            "index": self.index,
            "field": self.field_label,
            "specs": [[s.to_json() if s else None for s in row] for row in self.specs],
            "errors": list(self.errors),
        }


# The top-level keys ``to_json`` writes, and the ``verification`` list that
# ``realize chain --verify`` adds (a test holds them equal to its output's).
CHAIN_PLAN_KEYS = frozenset(("kind", "ok", "steps", "errors", "note", "groups", "maps", "verification"))


@dataclass
class ChainPlan:
    ok: bool
    steps: list
    errors: list
    note: str
    groups: list = dc_field(default_factory=list)
    maps: list = dc_field(default_factory=list)

    def all_specs(self):
        seen = {}
        for st in self.steps:
            for row in st.specs:
                for s in row:
                    if s is not None:
                        seen[(s.n, s.m, s.l)] = s
        return [seen[k] for k in sorted(seen)]

    def to_json(self):
        return {
            "kind": "chain_plan",
            "ok": self.ok,
            "steps": [s.to_json() for s in self.steps],
            "errors": list(self.errors),
            "note": self.note,
            "groups": [{"tags": list(g["tags"]), "u": list(g["u"])} for g in self.groups],
            "maps": [[list(row) for row in m] for m in self.maps],
        }


_CHAIN_NOTE = (
    "each block map lands in a corner; summing blocks against orthogonal "
    "idempotents and padding with the complementary projection gives one "
    "unital map per step without moving any class"
)


def _check_chain_shape(groups, maps) -> None:
    ints = lambda v: type(v) is list and all(type(x) is int for x in v)
    if not (type(groups) is list and all(type(g) is dict for g in groups)):
        raise ValueError("groups must be a list of objects, got %r" % (groups,))
    for t, g in enumerate(groups):
        for key in ("tags", "u"):
            if not ints(g.get(key)):
                raise ValueError("group %d: %s must be a list of integers, got %r" % (t, key, g.get(key)))
    if not (type(maps) is list and all(type(m) is list and all(ints(row) for row in m) for m in maps)):
        raise ValueError("maps must be a list of integer matrices, got %r" % (maps,))


def plan_chain(groups, maps) -> ChainPlan:
    """Check that a sequence of direct sums of cyclic groups with order-unit
    coordinates and integer matrices between them is realizable stepwise.

    ``groups``: list of ``{"tags": [...], "u": [...]}``; ``maps``: one
    integer matrix per adjacent pair, rows indexed by source components.
    Every component map must be well defined and the order-unit coordinates
    must be carried onto each other.  ValueError if the input does not have
    that shape: ``groups`` a list of objects whose ``tags`` and ``u`` are
    lists of integers, and ``maps`` a list of integer matrices.
    """
    _check_chain_shape(groups, maps)
    errors = []
    parsed = []
    for t, gspec in enumerate(groups):
        tags, u = tuple(gspec["tags"]), tuple(gspec["u"])
        if len(tags) != len(u):
            errors.append("group %d: %d tags but %d unit coordinates" % (t, len(tags), len(u)))
        for x in tags:
            if not _valid_tag(x):
                errors.append("group %d: bad tag %d" % (t, x))
        parsed.append((tags, u))
    if len(maps) != len(groups) - 1:
        errors.append("%d groups need %d maps, got %d" % (len(groups), len(groups) - 1, len(maps)))
    steps = []
    if not errors:
        for t, L in enumerate(maps):
            tags_s, u_s = parsed[t]
            tags_d, u_d = parsed[t + 1]
            step_err = []
            if len(L) != len(tags_s) or any(len(row) != len(tags_d) for row in L):
                step_err.append("matrix shape %dx%d expected" % (len(tags_s), len(tags_d)))
                steps.append(StepPlan(t, [], "qt:%d" % (t + 1), step_err))
                errors.extend("step %d: %s" % (t, e) for e in step_err)
                continue
            specs = [[None] * len(tags_d) for _ in tags_s]
            for i, n in enumerate(tags_s):
                for j, m in enumerate(tags_d):
                    try:
                        specs[i][j] = hom_spec(n, m, L[i][j])
                    except ValueError as ex:
                        step_err.append("component (%d,%d): %s" % (i, j, ex))
            for j, m in enumerate(tags_d):
                s = sum(L[i][j] * u_s[i] for i in range(len(tags_s)))
                good = (s - u_d[j]) % m == 0 if m >= 2 else s == u_d[j]
                if not good:
                    step_err.append(
                        "unit not carried at target %d: got %d, want %d mod %s"
                        % (j, s, u_d[j], m or "0"))
            steps.append(StepPlan(t, specs, "qt:%d" % (t + 1), step_err))
            errors.extend("step %d: %s" % (t, e) for e in step_err)
    return ChainPlan(not errors, steps, errors, _CHAIN_NOTE, list(groups), list(maps))


def verify_chain(plan: ChainPlan, count: int = 2) -> list:
    """Build and verify generator matrices for every distinct component map
    in a chain plan.  Returns (spec, VerifyReport) pairs."""
    out = []
    for spec in plan.all_specs():
        g = build_generators(spec, count=count)
        out.append((spec, verify_generators(g)))
    return out
