"""Monoid presentations, integer normal forms, universal groups, and the
shape analysis that characterizes the monoids arising from purely infinite
simple rings."""

import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from ratskew import kzero
from ratskew.kzero import (AbGroup, MonoidPresentation, UnsupportedPresentation,
                           analyze_pisr_shape, grothendieck_group,
                           monoid_enumerate, parse_presentation,
                           smith_normal_form)


# -- Smith normal form ----------------------------------------------------------

small_mats = st.integers(1, 3).flatmap(
    lambda m: st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


def _det(m):
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@given(small_mats)
@settings(max_examples=120)
def test_snf_properties(a):
    d, u, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert _mul(_mul(u, a), v) == d
    assert abs(_det(u)) == 1 and abs(_det(v)) == 1
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0


def _brute_quotient_factors(L):
    """Invariant factors of Z^2 / row-span(L) by exhaustive coset orders."""
    det = L[0][0] * L[1][1] - L[0][1] * L[1][0]
    D = abs(det)

    def in_lattice(v0, v1):
        a_num = v0 * L[1][1] - v1 * L[1][0]
        b_num = L[0][0] * v1 - L[0][1] * v0
        return a_num % det == 0 and b_num % det == 0

    exponent = 1
    for v0 in range(D):
        for v1 in range(D):
            k = 1
            while not in_lattice(k * v0, k * v1):
                k += 1
            exponent = exponent * k // gcd(exponent, k)
    f1 = D // exponent
    return tuple(f for f in (f1, exponent) if f > 1)


def test_snf_matches_brute_force_on_small_quotients():
    rng = random.Random(5)
    done = 0
    while done < 60:
        L = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        det = L[0][0] * L[1][1] - L[0][1] * L[1][0]
        if det == 0 or abs(det) > 30:
            continue
        d, _, _ = smith_normal_form(L)
        ours = tuple(x for x in (d[0][0], d[1][1]) if x > 1)
        assert ours == _brute_quotient_factors(L)
        done += 1


# -- agreement with the unlogged elimination -----------------------------------------
#
# _reference_snf is the elimination as it was before U became a replayed log
# of row operations, kept verbatim: the logged one must give the same D, U
# and V value for value, because V carries the generator images that
# ``k0 group`` and ``k0 monoid --json`` print.  Random draws stay where the
# reference finishes in milliseconds; its coefficients can grow without
# bound on larger ones (7 x 5 with entries in -9..9 already can).

def _reference_snf(a):
    """D, U, V with U*a*V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... and nonnegative entries."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):  # row_dst += c * row_src
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # pick the smallest nonzero pivot in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear the pivot column, then row, iterating while remainders appear
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, m)) and all(
                d[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        # divisibility: fold any bad entry into the pivot's row and repeat
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return d, u, v


def _reference_eliminate(a):
    d, _, v = _reference_snf(a)
    return d, v, None


def _assert_matches_reference(p):
    """The relation matrix of ``p`` has the reference's D, U and V, and the
    universal group of ``p`` is the one the reference's D and V give."""
    rows = [[x - y for x, y in zip(l, r)] for l, r in p.relations]
    if rows:
        assert smith_normal_form(rows) == _reference_snf(rows)
    got = grothendieck_group(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kzero, "_smith_eliminate", _reference_eliminate)
        want = grothendieck_group(p)
    assert got == want


def _presentation_of(a):
    gens = tuple("g%d" % j for j in range(len(a[0])))
    return MonoidPresentation(gens, tuple(
        (tuple(max(x, 0) for x in row), tuple(max(-x, 0) for x in row)) for row in a))


def _matrices(columns, rows, entries):
    return columns.flatmap(lambda n: rows(n).flatmap(
        lambda m: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)))


# up to 12 x 4, and up to 5 x 5, with entries in -9..9
wide_mats = _matrices(st.integers(1, 5), lambda n: st.integers(1, 12 if n <= 4 else 5),
                      st.integers(-9, 9))
# up to 24 rows over {0, +-1, +-2, 3}: many rows, small pivots, few columns
tall_mats = _matrices(st.integers(1, 5), lambda n: st.integers(n, 24),
                      st.sampled_from([0, 1, -1, 2, -2, 3]))


@given(st.one_of(wide_mats, tall_mats))
@example([[0, 0, 2], [0, 3, 0]])  # a pivot of 2 that must be folded
@example([[0, 0, 0, 2], [2, 0, 3, 0]])  # column operations after a column swap
@example([[2, 3], [0, 2]])  # rows hit by a column operation
@settings(max_examples=300)
def test_snf_matches_reference(a):
    assert smith_normal_form(a) == _reference_snf(a)
    _assert_matches_reference(_presentation_of(a))


# relation matrices shaped like a table group's: rows e_x + e_y - e_z (which
# is 2e_x - e_z when x = y) and one unit row, up to 60 x 8.  Their entries
# stay in -1..2, so the sparse pivot row of the column-clearing pass is
# what gets exercised, not coefficient growth.
def _table_rows(n):
    triple = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    return st.tuples(st.lists(triple, min_size=1, max_size=59), st.integers(0, n - 1),
                     st.integers(0, 59)).map(lambda drawn: _rows_of(n, *drawn))


def _rows_of(n, triples, unit, at):
    rows = []
    for x, y, z in triples:
        row = [0] * n
        row[x] += 1
        row[y] += 1
        row[z] -= 1
        rows.append(row)
    rows.insert(at % (len(rows) + 1), [1 if j == unit else 0 for j in range(n)])
    return rows


@given(st.integers(1, 8).flatmap(_table_rows))
@example([[1, 0], [2, -1], [0, 1]])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_snf_matches_reference_on_table_shaped_matrices(a):
    before = [list(row) for row in a]
    assert smith_normal_form(a) == _reference_snf(a)
    assert a == before
    _assert_matches_reference(_presentation_of(a))


def _table_presentation(n):
    """The group presentation that analyze_pisr_shape builds from the table
    of g | ng = g: one generator per nonzero element, x + y = (x+y) for
    every pair, and the identity element equal to 0."""
    tbl = monoid_enumerate(_cyclic(n), 64)
    nz = list(range(1, tbl.size()))
    pos = {x: t for t, x in enumerate(nz)}

    def unit(*xs):
        v = [0] * len(nz)
        for x in xs:
            v[pos[x]] += 1
        return tuple(v)

    ident = next(e for e in nz if all(tbl.table[e][x] == x for x in nz))
    rels = [(unit(x, y), unit(tbl.table[x][y])) for x in nz for y in nz]
    rels.append((unit(ident), unit()))
    return MonoidPresentation(tuple("e%d" % x for x in nz), tuple(rels))


@pytest.mark.parametrize("n", range(2, 14))
def test_table_group_matches_reference(n):
    _assert_matches_reference(_table_presentation(n))
    got = analyze_pisr_shape(_cyclic(n), 64).to_json()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kzero, "_smith_eliminate", _reference_eliminate)
        want = analyze_pisr_shape(_cyclic(n), 64).to_json()
    assert got == want


@pytest.mark.parametrize("n", range(2, 14))
def test_table_group_rows_are_the_sorted_presentation_rows(n):
    """analyze_pisr_shape hands the elimination the table group's relation
    rows in the order MonoidPresentation stores them, so its group is the
    universal group of that presentation, images included."""
    p = _table_presentation(n)
    seen = []

    def spy(a):
        seen.append([list(row) for row in a])
        return _reference_eliminate(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kzero, "_smith_eliminate", spy)
        group = analyze_pisr_shape(_cyclic(n), 64).group
    assert seen[0] == [[x - y for x, y in zip(l, r)] for l, r in p.relations]
    assert group == grothendieck_group(p)


def test_inputs_are_left_unchanged():
    """The elimination changes its copy in place, never the caller's rows,
    whichever of its operations it runs."""
    a = [[0, 0, -2], [0, 3, 0], [5, 0, 0]]  # row swaps, a fold, a negation
    assert {op[0] for op in kzero._smith_eliminate(a)[2]} == {kzero._SWAP, kzero._ADD, kzero._NEG}
    smith_normal_form(a)
    assert a == [[0, 0, -2], [0, 3, 0], [5, 0, 0]]
    p = _table_presentation(6)
    grothendieck_group(p)
    assert p == _table_presentation(6)
    q = _cyclic(5)
    analyze_pisr_shape(q, 64)
    assert q == _cyclic(5)


# -- universal groups --------------------------------------------------------------

def _cyclic(n):
    return MonoidPresentation(("I",), (((n,), (1,)),))


def test_cyclic_family_groups():
    for n in range(2, 13):
        g = grothendieck_group(_cyclic(n))
        if n == 2:
            assert g.factors == ()
            assert g.images["I"] == ()
        else:
            assert g.factors == (n - 1,)
            assert g.images["I"] == (1,)


def test_two_generator_family():
    for n in range(2, 7):
        p = MonoidPresentation(("I", "P"), (((1, 0), (n, 1)),))
        g = grothendieck_group(p)
        assert g.factors == (0,)
        assert g.images["I"] == (1,)
        assert g.images["P"] == (1 - n,)


def test_free_monoid_group():
    g = grothendieck_group(MonoidPresentation(("g",), ()))
    assert g.factors == (0,)
    assert g.images["g"] == (1,)


def test_mixed_torsion_and_free():
    # relations 3a = a and b = b + 2a give Z/2 x Z
    p = MonoidPresentation(("a", "b"), (((3, 0), (1, 0)),))
    g = grothendieck_group(p)
    assert g.factors == (2, 0)
    assert g.images["a"] == (1, 0)


def test_abgroup_helpers():
    g = AbGroup((2, 0), {"a": (1, 0), "b": (0, 1)})
    assert g.order() is None
    assert g.element_order((1, 0)) == 2
    assert g.element_order((0, 1)) is None
    assert g.render() == "Z/2 x Z"
    assert AbGroup((), {}).order() == 1
    assert AbGroup((3,), {"g": (1,)}).order() == 3


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_three_gives_three_elements():
    t = monoid_enumerate(_cyclic(3), 10)
    assert not t.overflow and t.complete
    assert t.size() == 3  # 0, g, 2g
    g = t.elements.index((1,))
    gg = t.add(g, g)
    assert t.add(gg, g) == g  # 2g + g = 3g = g


def test_enumerate_two_collapses():
    t = monoid_enumerate(_cyclic(2), 10)
    assert t.size() == 2
    g = t.elements.index((1,))
    assert t.add(g, g) == g


def test_enumerate_free_overflows():
    t = monoid_enumerate(MonoidPresentation(("g",), ()), 16)
    assert t.overflow and not t.complete


@pytest.mark.parametrize("bound", [0, -3])
def test_enumerate_refuses_a_bound_below_one(bound):
    with pytest.raises(ValueError, match="bound"):
        monoid_enumerate(_cyclic(3), bound)
    with pytest.raises(ValueError, match="bound"):
        analyze_pisr_shape(_cyclic(3), bound)


def test_enumerate_refuses_two_relations():
    p = MonoidPresentation(("a", "b"), (((2, 0), (1, 0)), ((0, 2), (0, 1))))
    with pytest.raises(UnsupportedPresentation):
        monoid_enumerate(p, 10)


def _loop_normal_form(rule, v):
    """Rewriting one step at a time, the reference for the closed form."""
    v = list(v)
    if rule is not None:
        big, small = rule
        while all(a >= b for a, b in zip(v, big)):
            v = [a - b + c for a, b, c in zip(v, big, small)]
    return tuple(v)


def _vectors(k, hi):
    return st.lists(st.integers(0, hi), min_size=k, max_size=k).map(tuple)


# one relation l = r on 1..3 generators, and a vector to rewrite
one_rules = st.integers(1, 3).flatmap(
    lambda k: st.tuples(_vectors(k, 4), _vectors(k, 4), _vectors(k, 30)))


@given(one_rules)
@example(((1,), (3,), (7,)))  # g = 3g: 7g rewrites three times, to g
@example(((2, 0), (1, 1), (29, 30)))  # 2a = a + b: b grows with each step
@example(((1, 1), (1, 1), (5, 5)))  # l = r: no rule
@settings(max_examples=400)
def test_closed_form_rewriting_matches_loop(t):
    l, r, v = t
    rule = kzero._orient(((l, r),))
    assert kzero._normal_form(rule, v) == _loop_normal_form(rule, v)


one_relation_presentations = st.integers(1, 2).flatmap(
    lambda k: st.tuples(_vectors(k, 3), _vectors(k, 3))).filter(
        lambda lr: sum(lr[0]) + sum(lr[1]) > 0).map(
    lambda lr: MonoidPresentation(tuple("g%d" % i for i in range(len(lr[0]))), (lr,)))


@given(one_relation_presentations, st.sampled_from([8, 40]))
@example(_cyclic(4), 40)
@example(MonoidPresentation(("I", "P"), (((1, 0), (2, 1)),)), 40)  # overflows
@settings(max_examples=150, deadline=None)
def test_mirrored_table_matches_full_fill(p, bound):
    tbl = monoid_enumerate(p, bound)
    rule = kzero._orient(p.relations)
    index = {e: i for i, e in enumerate(tbl.elements)}
    full = [[index.get(_loop_normal_form(rule, [a + b for a, b in zip(ei, ej)]))
             for ej in tbl.elements] for ei in tbl.elements]
    assert tbl.table == full


# -- shape reports ---------------------------------------------------------------------

def test_shape_of_cyclic_four():
    rep = analyze_pisr_shape(_cyclic(4), 64)
    assert rep.complete and rep.conical and rep.simple
    assert rep.nonzero_is_group
    assert rep.group is not None and rep.group.factors == (3,)
    assert rep.matches_group_side


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_shape_family_matches_universal_group(n):
    rep = analyze_pisr_shape(_cyclic(n), 64)
    assert rep.nonzero_is_group and rep.conical and rep.simple
    want = grothendieck_group(_cyclic(n)).factors
    assert rep.group.factors == want
    assert rep.generator_orders_match


def test_shape_of_free_monoid():
    rep = analyze_pisr_shape(MonoidPresentation(("g",), ()), 32)
    assert not rep.complete
    assert rep.conical
    assert not rep.nonzero_is_group


def test_shape_of_infinite_two_generator():
    p = MonoidPresentation(("I", "P"), (((1, 0), (2, 1)),))
    rep = analyze_pisr_shape(p, 48)
    assert not rep.complete  # overflow: infinite monoid, partial report
    assert rep.notes


# -- presentation parsing -----------------------------------------------------------------

def test_parse_round_trip():
    for text in ["I | 3I=I", "I,P | I = 2I + P", "g |", "a,b | a+b = 2a, b=b"]:
        p = parse_presentation(text)
        assert parse_presentation(p.render()) == p


def test_parse_coefficients_and_zero():
    p = parse_presentation("a,b | 2a + 3b = 0")
    assert p.relations == ((((2, 3), (0, 0))),)
    p2 = parse_presentation("a | a + a + a = a")
    assert p2.relations == _cyclic(3).relations


def test_parse_errors():
    for bad in ["no pipe", "| a=a", "a | b=a", "a | a=", "a | 2=a"]:
        with pytest.raises(ValueError):
            parse_presentation(bad)


def test_presentation_canonicalizes():
    p1 = MonoidPresentation(("a",), (((2,), (1,)), ((3,), (1,))))
    p2 = MonoidPresentation(("a",), (((3,), (1,)), ((2,), (1,))))
    assert p1.relations == p2.relations
    with pytest.raises(ValueError):
        MonoidPresentation((), ())
    with pytest.raises(ValueError):
        MonoidPresentation(("a", "a"), ())
    with pytest.raises(ValueError):
        MonoidPresentation(("a",), (((1, 2), (1,)),))
