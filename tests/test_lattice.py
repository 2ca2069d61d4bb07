"""Lattice geometry: canonical bases, duality, sums, intersections, transport.

The independent oracle for lattice equality here is mutual inclusion
checked through membership of generators, which exercises a different
code path (linear solve + valuations) than canonical-form comparison.
"""

import operator
import random
from fractions import Fraction

import pytest

import qpadic.lattice
import qpadic.padic
from qpadic.channels import GaussianChannel, GaussianState
from qpadic.lattice import (
    STANDARD_J,
    Lattice,
    Mat2,
    Vec2,
    standard_lattice,
    sympl,
    symplectic_transport,
)
from qpadic.padic import Prime, fractional_part, p_power, padic_norm, valuation

from conftest import (
    PRIMES,
    rand_basis,
    rand_lattice,
    rand_rational,
    rand_symplectic,
    rand_unimodular,
    rand_vector,
)


def mutually_included(a: Lattice, b: Lattice) -> bool:
    return a.issubset(b) and b.issubset(a)


def generic_reduction(cols: list[Vec2], p: int) -> Mat2:
    """Column-reduce any number of generators over Z_p to the canonical triangular basis.

    The independent route for the library's closed forms. Column operations
    multiply the basis on the right by invertible p-adically integral
    matrices, so the span is unchanged at every step:

      1. pivot on a column whose first entry has minimal valuation and
         clear the first row of every other column (the ratios are p-adic
         integers by pivot minimality, and cancellation is exact);
      2. among the remaining columns, now of the form (0, y), pivot on a
         minimal-valuation y; any others cancel to zero exactly;
      3. scale both pivot columns by p-adic units to make the diagonal
         entries exact powers of p;
      4. reduce the corner entry modulo p**b * Z_p to its canonical
         residue p**b * {y / p**b}_p.
    """
    first_row = [(valuation(col.x, p), i) for i, col in enumerate(cols) if col.x != 0]
    if not first_row:
        raise ValueError("generators do not span the plane")
    _, i0 = min(first_row)
    u = cols[i0]
    second_row = []
    for i, col in enumerate(cols):
        if i == i0:
            continue
        if col.x != 0:
            col = col - u.scaled(col.x / u.x)
        if col.y != 0:
            second_row.append((valuation(col.y, p), i, col))
    if not second_row:
        raise ValueError("generators do not span the plane")
    _, _, v = min(second_row, key=lambda item: item[:2])

    a = valuation(u.x, p)
    u = u.scaled(p_power(p, a) / u.x)
    pb = p_power(p, valuation(v.y, p))
    return Mat2(p_power(p, a), 0, pb * fractional_part(u.y / pb, p), pb)


def generic_dual(basis: Mat2, p: int) -> Mat2:
    """J * B**-T reduced from scratch: the dual's canonical basis by the generic route."""
    inv = basis.inverse()
    inverse_transpose = Mat2(inv.a, inv.c, inv.b, inv.d)
    return generic_reduction(list((STANDARD_J @ inverse_transpose).columns()), p)


def generic_sum(x: Mat2, y: Mat2, p: int) -> Mat2:
    """The columns of both bases reduced together: the sum by the generic route."""
    return generic_reduction([*x.columns(), *y.columns()], p)


def generic_intersection(a: Lattice, b: Lattice) -> Mat2:
    """(A* + B*)* with both duals, the sum and the final dual reduced from scratch."""
    p = a.p
    return generic_dual(generic_sum(generic_dual(a.basis, p), generic_dual(b.basis, p), p), p)


def is_p_power(q: Fraction, p: int) -> bool:
    if q <= 0:
        return False
    v = valuation(q, p)
    return q == (Fraction(p**v) if v >= 0 else Fraction(1, p**-v))


class TestVecMat:
    def test_parse_and_str_round_trip(self):
        v = Vec2.parse("3/2,−1")
        assert (v.x, v.y) == (Fraction(3, 2), Fraction(-1))
        assert Vec2.parse(str(v)) == v
        m = Mat2.parse("1,1/2;0,5")
        assert Mat2.parse(str(m)) == m

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            Vec2.parse("1,2,3")
        with pytest.raises(ValueError):
            Mat2.parse("1,2;3")
        with pytest.raises(ValueError):
            Mat2.parse("1,2")

    def test_inverse_and_adjugate(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rand_basis(rng, 3)
            assert m @ m.inverse() == Mat2.identity()
            assert m @ m.adjugate() == Mat2.identity().scaled(m.det())
        with pytest.raises(ValueError):
            Mat2(1, 2, 2, 4).inverse()

    def test_matvec(self):
        m = Mat2(1, 2, 3, 4)
        assert m @ Vec2(5, 6) == Vec2(17, 39)

    def test_sympl_is_standard_form(self):
        rng = random.Random(8)
        for _ in range(50):
            u, v = rand_vector(rng, 5), rand_vector(rng, 5)
            jv = STANDARD_J @ v
            assert sympl(u, v) == u.x * jv.x + u.y * jv.y
            assert sympl(u, v) == -sympl(v, u)
        assert sympl(Vec2(1, 0), Vec2(0, 1)) == 1


class TestCanonicalForm:
    def test_pinned_reductions(self):
        assert str(Lattice(Mat2.parse("3,3;0,3"), 3).canonical) == "3,0;0,3"
        assert str(Lattice(Mat2.parse("1,0;1/2,1"), 2).canonical) == "1,0;1/2,1"
        assert str(Lattice(Mat2.parse("1/2,0;0,4"), 2).canonical) == "1/2,0;0,4"
        assert str(standard_lattice(7).canonical) == "1,0;0,1"

    def test_pinned_measures(self):
        assert Lattice(Mat2.parse("3,0;0,1"), 3).measure == Fraction(1, 3)
        assert Lattice(Mat2.parse("1/2,0;0,4"), 2).measure == Fraction(1, 2)
        assert standard_lattice(11).measure == 1

    def test_column_order_is_irrelevant(self):
        a = Lattice(Mat2.parse("0,3;3,0"), 3)
        assert str(a.canonical) == "3,0;0,3"

    def test_shape(self):
        rng = random.Random(9)
        for p in PRIMES:
            for _ in range(60):
                lat = rand_lattice(rng, p)
                k = lat.canonical
                assert k.b == 0
                assert is_p_power(k.a, p) and is_p_power(k.d, p)
                # corner is the canonical residue: reducing again is a no-op
                assert Lattice(k, p).canonical == k
                # det valuation is basis independent
                assert valuation(k.det(), p) == valuation(lat.basis.det(), p)

    def test_invariant_under_right_unimodular_action(self):
        rng = random.Random(10)
        for p in PRIMES:
            for _ in range(40):
                b = rand_basis(rng, p)
                u = rand_unimodular(rng, p)
                assert Lattice(b @ u, p) == Lattice(b, p)

    def test_equality_agrees_with_mutual_inclusion(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            lats = [rand_lattice(rng, p) for _ in range(12)]
            for a in lats:
                for b in lats:
                    assert (a == b) == mutually_included(a, b)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Lattice(Mat2.parse("1,2;2,4"), 3)
        with pytest.raises(ValueError):
            Lattice(Mat2.identity(), 4)
        with pytest.raises(ValueError):
            standard_lattice(3).issubset(standard_lattice(5))


class TestDuality:
    def test_pinned_dual(self):
        d = Lattice(Mat2.parse("3,0;0,1"), 3).dual()
        assert str(d.canonical) == "1,0;0,1/3"
        assert d.measure == 3

    def test_self_dual_standard(self):
        for p in PRIMES:
            assert standard_lattice(p).is_self_dual()

    def test_involution_and_measure_product(self):
        rng = random.Random(12)
        for p in PRIMES:
            for _ in range(60):
                lat = rand_lattice(rng, p)
                dd = lat.dual().dual()
                assert dd == lat
                assert lat.measure * lat.dual().measure == 1

    def test_dual_by_pairing_membership(self):
        # u is in the dual iff it pairs integrally with both generators
        rng = random.Random(13)
        for _ in range(40):
            lat = rand_lattice(rng, 3)
            dual = lat.dual()
            u, v = lat.canonical.columns()
            w = rand_vector(rng, 3)
            pairs_integrally = (
                valuation(sympl(w, u), 3) >= 0 and valuation(sympl(w, v), 3) >= 0
            )
            assert dual.contains(w) == pairs_integrally

    def test_self_duality_both_routes(self):
        rng = random.Random(14)
        for p in (2, 3, 7):
            for _ in range(30):
                s = rand_symplectic(rng, p)
                lat = standard_lattice(p).transformed(s)
                assert lat.measure == 1
                assert lat.dual() == lat
                assert lat.is_self_dual()
        # and a measure != 1 lattice is never self-dual
        for p in (2, 3, 7):
            for _ in range(30):
                lat = rand_lattice(rng, p)
                if lat.measure != 1:
                    assert lat.dual() != lat
                    assert not lat.is_self_dual()


class TestSumIntersection:
    def test_pinned_examples(self):
        a = Lattice(Mat2.parse("3,0;0,1"), 3)
        b = Lattice(Mat2.parse("1,0;0,3"), 3)
        assert (a + b) == standard_lattice(3)
        meet = a & b
        assert str(meet.canonical) == "3,0;0,3"
        assert meet.measure == Fraction(1, 9)

    def test_lattice_order(self):
        rng = random.Random(15)
        for p in PRIMES:
            for _ in range(40):
                a, b = rand_lattice(rng, p), rand_lattice(rng, p)
                join, meet = a + b, a & b
                assert a.issubset(join) and b.issubset(join)
                assert meet.issubset(a) and meet.issubset(b)
                assert meet.measure <= min(a.measure, b.measure)
                assert join.measure >= max(a.measure, b.measure)
                # modular identity for measures in rank 2
                assert join.measure * meet.measure == a.measure * b.measure

    def test_membership_oracle(self):
        rng = random.Random(16)
        for _ in range(30):
            a, b = rand_lattice(rng, 2), rand_lattice(rng, 2)
            meet = a & b
            for _ in range(8):
                w = rand_vector(rng, 2)
                assert meet.contains(w) == (a.contains(w) and b.contains(w))

    def test_de_morgan_duality(self):
        rng = random.Random(17)
        for p in (3, 5):
            for _ in range(30):
                a, b = rand_lattice(rng, p), rand_lattice(rng, p)
                assert (a & b).dual() == a.dual() + b.dual()
                assert (a + b).dual() == a.dual() & b.dual()

    def test_algebraic_laws(self):
        rng = random.Random(18)
        for _ in range(20):
            a, b, c = (rand_lattice(rng, 3) for _ in range(3))
            assert a + b == b + a and (a & b) == (b & a)
            assert (a + b) + c == a + (b + c)
            assert (a & b) & c == a & (b & c)
            assert a + a == a and (a & a) == a
            assert a + (a & b) == a and (a & (a + b)) == a


class TestScalingTransforms:
    def test_scaled_measure(self):
        rng = random.Random(19)
        for p in PRIMES:
            for _ in range(20):
                lat = rand_lattice(rng, p)
                for n in (-2, -1, 0, 1, 3):
                    scale = Fraction(p**n) if n >= 0 else Fraction(1, p**-n)
                    assert lat.scaled(n).measure == lat.measure * scale ** (-2)
                assert lat.scaled(0) == lat
                assert lat.scaled(1).scaled(2) == lat.scaled(3)
                assert lat.scaled(1).issubset(lat) and lat.issubset(lat.scaled(-1))

    def test_transformed_measure_and_composition(self):
        rng = random.Random(20)
        for p in (2, 3, 7):
            for _ in range(30):
                lat = rand_lattice(rng, p)
                g, h = rand_basis(rng, p), rand_basis(rng, p)
                assert lat.transformed(g).measure == padic_norm(g.det(), p) * lat.measure
                assert lat.transformed(g).transformed(h) == lat.transformed(h @ g)
        with pytest.raises(ValueError):
            standard_lattice(3).transformed(Mat2(1, 1, 1, 1))

    def test_symplectic_invariance_of_measure(self):
        rng = random.Random(21)
        for p in PRIMES:
            for _ in range(20):
                lat = rand_lattice(rng, p)
                s = rand_symplectic(rng, p)
                assert lat.transformed(s).measure == lat.measure


class TestSymplecticStructure:
    def test_symplectic_basis(self):
        rng = random.Random(22)
        for p in (2, 3, 5):
            for _ in range(25):
                lat = standard_lattice(p).transformed(rand_symplectic(rng, p))
                u, v = lat.symplectic_basis()
                assert sympl(u, v) == 1
                assert Lattice(Mat2.from_columns(u, v), p) == lat
        with pytest.raises(ValueError):
            Lattice(Mat2.diagonal(3, 1), 3).symplectic_basis()

    def test_diagonalization(self):
        rng = random.Random(23)
        for p in (2, 3, 5, 7):
            for _ in range(40):
                lat = rand_lattice(rng, p)
                s, n = lat.symplectic_diagonalization()
                assert s.det() == 1
                scale = Fraction(p**n) if n >= 0 else Fraction(1, p**-n)
                assert lat.measure == 1 / scale
                model = Lattice(Mat2.diagonal(scale, 1), p)
                assert model.transformed(s) == lat

    def test_transport(self):
        rng = random.Random(24)
        for p in (2, 3, 5):
            for _ in range(25):
                src = rand_lattice(rng, p)
                dst = src.transformed(rand_symplectic(rng, p))
                s = symplectic_transport(src, dst)
                assert s.det() == 1
                assert src.transformed(s) == dst

    def test_transport_requires_equal_measure(self):
        a = Lattice(Mat2.diagonal(3, 1), 3)
        with pytest.raises(ValueError):
            symplectic_transport(a, standard_lattice(3))


class TestContainment:
    def test_generator_membership(self):
        rng = random.Random(25)
        for p in (2, 3, 11):
            for _ in range(30):
                lat = rand_lattice(rng, p)
                u, v = lat.canonical.columns()
                assert lat.contains(u) and lat.contains(v)
                assert lat.contains(u + v) and lat.contains(u - v.scaled(3))
                # leaving the lattice: dividing a pivot generator by p
                assert not lat.contains(u.scaled(Fraction(1, p)))

    def test_integral_combinations_stay_inside(self):
        rng = random.Random(26)
        for _ in range(30):
            lat = rand_lattice(rng, 5)
            u, v = lat.canonical.columns()
            a = rand_rational(rng, 5, 0, 3)
            b = rand_rational(rng, 5, 0, 3)
            assert lat.contains(u.scaled(a) + v.scaled(b))


class TestClosedForms:
    """Closed forms against the generic reduction.

    The 2x2 reduction behind `Lattice(basis, p)` and `transformed` is a
    closed form, and `dual`, `scaled`, `measure`, `is_self_dual`, `&` and
    `+` read their results off the stored exponents and corner; here every
    one is compared with a basis reduced from raw generators by
    `generic_reduction`, which keeps two independent routes for criteria 1-2.
    """

    @pytest.fixture(scope="class")
    def raw_bases(self):
        rng = random.Random(29)
        cases = []
        for p in PRIMES:
            for _ in range(200):
                i, j = rng.randint(-3, 3), rng.randint(-3, 3)
                diagonal = Mat2.diagonal(Fraction(p) ** i, Fraction(p) ** j)
                cases.append((rand_basis(rng, p), p, rand_unimodular(rng, p), diagonal))
        return cases

    def test_reduction_matches_generic_route(self, raw_bases):
        assert len(raw_bases) >= 1000
        seen = set()
        for m, p, unimodular, diagonal in raw_bases:
            for raw in (m, m @ unimodular, diagonal @ m):
                k = Lattice(raw, p).canonical
                assert k == generic_reduction(list(raw.columns()), p)
                if raw.a != 0 and raw.b != 0 and valuation(raw.a, p) == valuation(raw.b, p):
                    seen.add("tied first row")
                for i, col in enumerate(raw.columns()):
                    if col.x == 0:
                        seen.add(f"zero first entry in column {i}")
                if p == 2 and k.c != 0 and valuation(k.c, p) < 0:
                    seen.add("negative corner at p = 2")
            lat = Lattice(m, p)
            for g in (unimodular, diagonal):
                assert lat.transformed(g).canonical == generic_reduction(list((g @ m).columns()), p)
        assert seen == {
            "tied first row",
            "zero first entry in column 0",
            "zero first entry in column 1",
            "negative corner at p = 2",
        }

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = random.Random(27)
        return [rand_lattice(rng, p) for p in PRIMES for _ in range(200)]

    def test_dual_matches_generic_route(self, corpus):
        assert len(corpus) >= 1000
        for lat in corpus:
            dual = lat.dual()
            assert dual.canonical == generic_dual(lat.basis, lat.p)
            assert dual.measure == padic_norm(dual.canonical.det(), lat.p)

    def test_scaled_matches_generic_route(self, corpus):
        for lat in corpus:
            for n in range(-3, 4):
                scaled = lat.basis.scaled(Fraction(lat.p) ** n)
                assert lat.scaled(n).canonical == generic_reduction(list(scaled.columns()), lat.p)

    def test_measure_matches_padic_norm(self, corpus):
        for lat in corpus:
            assert lat.measure == padic_norm(lat.basis.det(), lat.p)

    def test_self_duality_matches_generic_dual(self, corpus):
        verdicts = [lat.is_self_dual() for lat in corpus]
        assert verdicts == [generic_dual(lat.basis, lat.p) == lat.canonical for lat in corpus]
        assert any(verdicts) and not all(verdicts)

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = random.Random(28)
        return [(rand_lattice(rng, p), rand_lattice(rng, p)) for p in PRIMES for _ in range(200)]

    def test_intersection_matches_generic_route(self, pairs):
        assert len(pairs) >= 1000
        # both orders of the b exponents, and ties, occur in the corpus
        orders = {(a.canonical.d > b.canonical.d) - (a.canonical.d < b.canonical.d) for a, b in pairs}
        assert orders == {-1, 0, 1}
        for a, b in pairs:
            assert (a & b).canonical == generic_intersection(a, b)

    def test_sum_matches_generic_route(self, pairs):
        for a, b in pairs:
            assert (a + b).canonical == generic_sum(a.basis, b.basis, a.p)

    def test_stored_exponents_match_canonical(self, corpus, pairs):
        rng = random.Random(30)
        derived = []
        for lat in corpus:
            g = rand_basis(rng, lat.p)
            derived += [lat, lat.dual(), lat.scaled(rng.randint(-3, 3)), lat.transformed(g)]
        derived += [op(a, b) for a, b in pairs for op in (operator.and_, operator.add)]
        for lat in derived:
            k, p = lat.canonical, lat.p
            assert k.b == 0 and is_p_power(k.a, p) and is_p_power(k.d, p)
            assert (lat.a, lat.b, lat.corner) == (valuation(k.a, p), valuation(k.d, p), k.c)
            assert lat.measure == padic_norm(k.det(), p)

    @pytest.mark.parametrize(
        "a, b, meet, join",
        [
            # equal b, slopes 0 and 1 differ by a unit: a rises to b
            ("1,0;0,3", "1,0;1,3", "3,0;0,3", "1,0;0,1"),
            # equal slopes 0: the exponents take their maxima and minima
            ("9,0;0,3", "1,0;0,9", "9,0;0,9", "1,0;0,3"),
            # equal slopes 1, and nested: the smaller lattice meets, the larger joins
            ("1,0;1,9", "3,0;3,27", "3,0;3,27", "1,0;1,9"),
            # nested with different slopes
            ("1,0;0,1", "3,0;1,3", "3,0;1,3", "1,0;0,1"),
        ],
    )
    def test_pinned_meets_and_joins(self, a, b, meet, join):
        one, two = Lattice(Mat2.parse(a), 3), Lattice(Mat2.parse(b), 3)
        for x, y in ((one, two), (two, one)):
            assert x & y == Lattice(Mat2.parse(meet), 3)
            assert x + y == Lattice(Mat2.parse(join), 3)

    @pytest.mark.parametrize("op", [operator.and_, operator.add], ids=["intersect", "sum"])
    def test_prime_mismatch(self, op):
        with pytest.raises(ValueError, match="prime mismatch"):
            op(standard_lattice(3), standard_lattice(5))


class TestReductionCount:
    """Only raw generators are reduced: derived lattices are built canonical."""

    @pytest.mark.parametrize(
        "op, expected",
        [
            ("construct", 1),
            ("sum", 0),
            ("intersect", 0),
            ("transformed", 1),
            ("dual", 0),
            ("scaled", 0),
        ],
    )
    def test_reductions_per_operation(self, monkeypatch, op, expected):
        a = Lattice(Mat2.parse("3,1;1/3,2"), 3)
        b = Lattice(Mat2.parse("1/9,0;5,27"), 3)
        ops = {
            "construct": lambda: Lattice(Mat2.parse("6,1;1/3,2"), 3),
            "sum": lambda: a + b,
            "intersect": lambda: a & b,
            "transformed": lambda: a.transformed(Mat2.parse("2,1;1,3")),
            "dual": a.dual,
            "scaled": lambda: a.scaled(2),
        }
        calls = []
        reduce = qpadic.lattice._canonical_basis

        def counting(m, p, s):
            calls.append(p)
            return reduce(m, p, s)

        monkeypatch.setattr(qpadic.lattice, "_canonical_basis", counting)
        ops[op]()
        assert len(calls) == expected


class TestPrimeCarried:
    """A lattice holds the Prime it was built at, so no operation on it tests p again."""

    @pytest.mark.parametrize("p", [3, 1000003])
    def test_operations_make_no_prime_test(self, monkeypatch, p):
        a = Lattice(Mat2.parse(f"{p},1;1/{p},2"), p)
        b = Lattice(Mat2.parse(f"1/{p * p},0;5,{p**3}"), p)
        state = GaussianState(a.scaled(1), Vec2(1, Fraction(1, p)))
        channel = GaussianChannel(Mat2.diagonal(p, 1), standard_lattice(p))
        assert type(a.p) is Prime and type(state.p) is Prime and type(channel.p) is Prime
        calls = []
        monkeypatch.setattr(qpadic.padic, "is_prime", lambda n: calls.append(n))
        lattices = [
            a.dual(),
            a & b,
            a + b,
            a.scaled(-2),
            a.transformed(Mat2.parse("2,1;1,3")),
            channel.apply(state).lattice,
        ]
        assert a.contains(Vec2(p, 1)) and not a.contains(Vec2(Fraction(1, p), 0))
        assert a.issubset(a + b) and (a & b).issubset(b)
        assert state.char(Vec2(p, p)) is not None and state.char(Vec2(1, 0)) is None
        assert channel.entropy_gain_witness(channel.witness_threshold()) == channel.entropy_gain()
        assert calls == []
        assert all(type(lat.p) is Prime for lat in lattices)
