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
from qpadic.adelic import adelic_report, gain_exponent
from qpadic.channels import GaussianChannel, GaussianState, channel_validity
from qpadic.lattice import Lattice, Mat2, Vec2, standard_lattice, sympl
from qpadic.oracle import WeylSystem, channel_scan
from qpadic.padic import Prime, fractional_part, p_power, padic_norm, valuation

from conftest import (
    PRIMES,
    count_calls,
    rand_basis,
    rand_lattice,
    rand_rational,
    rand_symplectic,
    rand_unimodular,
    rand_vector,
    solved_subset,
)


#: Matrix of the standard symplectic form, J = [[0, 1], [-1, 0]].
STANDARD_J = Mat2(0, 1, -1, 0)


def mutually_included(a: Lattice, b: Lattice) -> bool:
    return solved_subset(a, b) and solved_subset(b, a)


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
            col = Vec2(0, col.y - col.x / u.x * u.y)
        if col.y != 0:
            second_row.append((valuation(col.y, p), i, col))
    if not second_row:
        raise ValueError("generators do not span the plane")
    _, _, v = min(second_row, key=lambda item: item[:2])

    a = valuation(u.x, p)
    u = Vec2(p_power(p, a), p_power(p, a) / u.x * u.y)
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

    def test_det_matches_fraction_formula(self):
        # det runs on the entries' int numerators and denominators; a * d - b * c is the reference
        rng = random.Random(6)

        def entry(p: int) -> Fraction:
            kind = rng.randrange(4)
            if kind == 0:
                return Fraction(0)
            # denominators share the factors 2, 3, 6 and 12 across entries, and carry p**k
            den = rng.choice((1, 2, 3, 6, 12)) * p ** rng.randint(0, 3) if kind == 1 else 1
            return Fraction(rng.randint(-50, 50), den) if kind != 3 else rand_rational(rng, p)

        cases = [Mat2(*(entry(p) for _ in range(4))) for p in PRIMES for _ in range(400)]
        big = 2**3321  # the largest power of 2 within the 1000-digit literal cap
        cases += [Mat2.parse(f"{big},1;1,{big}"), Mat2.parse(f"{big},3/4;{big},5/6")]
        cases += [Mat2(1, 2, 2, 4), Mat2(Fraction(1, 6), Fraction(1, 4), Fraction(2, 3), 1)]
        assert len(cases) >= 2000 and sum(m.a * m.d == m.b * m.c for m in cases) >= 100
        for m in cases:
            det, ref = m.det(), m.a * m.d - m.b * m.c
            assert type(det) is Fraction
            assert (det.numerator, det.denominator) == (ref.numerator, ref.denominator)
            if ref == 0:  # det() reads 0 where the checked _det_ratio refuses
                with pytest.raises(ValueError, match="singular matrix"):
                    m._det_ratio()

    @pytest.mark.parametrize(
        "entry",
        [
            lambda m: Lattice(m, 3),
            lambda m: standard_lattice(3).transformed(m),
            lambda m: m.inverse(),
            lambda m: channel_validity(m, standard_lattice(3)),
            lambda m: GaussianChannel(m, standard_lattice(3)),
            lambda m: gain_exponent(m, 3),
            adelic_report,
            lambda m: channel_scan(WeylSystem(3, 2), m, (0, 0)),
        ],
        ids=["Lattice", "transformed", "inverse", "channel_validity", "GaussianChannel",
             "gain_exponent", "adelic_report", "channel_scan"],
    )
    def test_singular_matrix_has_one_message(self, entry):
        # every entry point reads det through Mat2._det_ratio, whose error names the matrix
        with pytest.raises(ValueError, match=r"^singular matrix 1,2;2,4$"):
            entry(Mat2(1, 2, 2, 4))

    def test_matvec(self):
        m = Mat2(1, 2, 3, 4)
        assert m @ Vec2(5, 6) == Vec2(17, 39)

    def test_products_match_fraction_operators(self):
        # @ and sympl build each entry a * x + b * y from int numerators and denominators; the
        # reference is the same sum through Fraction's own * and +, entry by entry
        rng = random.Random(9)
        capped = [str(2**3321), f"-{3**992}/{5**749}", f"1/{7**1180}"]  # at the 1000-digit literal cap
        assert all(len(text) == 1000 for text in capped)
        big = [Mat2(capped[0], 0, capped[1], 1), Mat2(capped[2], capped[1], 3, capped[0])]
        cases = [(m, n, v) for m in big for n in big for v in (Vec2(capped[1], capped[2]), Vec2(0, capped[0]))]
        for p in (*PRIMES, 1000003):
            for _ in range(100):
                m = rand_basis(rng, p)
                n = rand_basis(rng, p) if rng.random() < 0.5 else Mat2(*(rand_rational(rng, p) for _ in range(4)))
                cases.append((m, n, rand_vector(rng, p)))

        def same(got, ref) -> bool:
            return type(got) is Fraction and (got.numerator, got.denominator) == (ref.numerator, ref.denominator)

        entries = []
        for m, n, v in cases:
            mv, mn = m @ v, m @ n
            assert same(mv.x, m.a * v.x + m.b * v.y) and same(mv.y, m.c * v.x + m.d * v.y)
            assert same(mn.a, m.a * n.a + m.b * n.c) and same(mn.b, m.a * n.b + m.b * n.d)
            assert same(mn.c, m.c * n.a + m.d * n.c) and same(mn.d, m.c * n.b + m.d * n.d)
            u, w = m.columns()
            assert same(sympl(u, v), u.x * v.y - u.y * v.x) and same(sympl(v, w), v.x * w.y - v.y * w.x)
            entries += [m.a, m.b, m.c, m.d, v.x, v.y]
        assert sum(x == 0 for x in entries) >= 300 and sum(x < 0 for x in entries) >= 1000

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

    def test_repr_and_unknown_attribute(self):
        lat = Lattice(Mat2.parse("0,3;9,1"), 3)
        assert repr(lat) == "Lattice(p=3, canonical='3,0;1,9')"
        # __getattr__ fills only the empty canonical and basis slots; any other name is an error
        with pytest.raises(AttributeError, match="^'Lattice' object has no attribute 'sigma'$"):
            lat.sigma

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


class TestSymplecticStructure:
    def test_symplectic_basis(self):
        # the canonical columns of a self-dual lattice are a symplectic basis of it
        rng = random.Random(22)
        for p in (2, 3, 5):
            for _ in range(25):
                lat = standard_lattice(p).transformed(rand_symplectic(rng, p))
                u, v = lat.canonical.columns()
                assert sympl(u, v) == 1
                assert Lattice(Mat2.from_columns(u, v), p) == lat

    def test_diagonalization(self):
        # L = S * diag(p**n, 1) * L0 with n = a + b and S = canonical * diag(p**-n, 1) of det 1
        rng = random.Random(23)
        for p in (2, 3, 5, 7):
            for _ in range(40):
                lat = rand_lattice(rng, p)
                n = lat.a + lat.b
                s = lat.canonical @ Mat2.diagonal(p_power(p, -n), 1)
                assert s.det() == 1
                assert lat.measure == p_power(p, -n)
                assert Lattice(Mat2.diagonal(p_power(p, n), 1), p).transformed(s) == lat

    def test_transport(self):
        # S = C_dst * C_src**-1 maps src onto dst; it is symplectic exactly when the measures agree,
        # which is unitarily_equivalent's verdict whenever both lattices are states
        rng = random.Random(24)
        equal_measures, verdicts = [], []
        for p in (2, 3, 5):
            for _ in range(25):
                src = rand_lattice(rng, p)
                for dst in (src.transformed(rand_symplectic(rng, p)), rand_lattice(rng, p)):
                    s = dst.canonical @ src.canonical.inverse()
                    assert src.transformed(s) == dst
                    equal = dst.measure == src.measure
                    assert (s.det() == 1) == equal
                    equal_measures.append(equal)
                    if src.measure <= 1 and dst.measure <= 1:
                        assert GaussianState(src).unitarily_equivalent(GaussianState(dst)) == equal
                        verdicts.append(equal)
        # (pairs, pairs of unequal measure, pairs of states, pairs of inequivalent states)
        counts = len(equal_measures), equal_measures.count(False), len(verdicts), verdicts.count(False)
        assert counts == (150, 69, 39, 10)

    def test_transport_requires_equal_measure(self):
        # measure 1/3 against 1: the map between the two has det 3, so no symplectic one exists
        a, b = Lattice(Mat2.diagonal(3, 1), 3), standard_lattice(3)
        s = b.canonical @ a.canonical.inverse()
        assert a.transformed(s) == b
        assert padic_norm(s.det(), 3) == b.measure / a.measure == 3
        assert not GaussianState(a).unitarily_equivalent(GaussianState(b))
        assert GaussianState(b).unitarily_equivalent(GaussianState(b.transformed(Mat2(1, 1, 0, 1))))


class TestContainment:
    def test_generator_membership(self):
        rng = random.Random(25)
        for p in (2, 3, 11):
            for _ in range(30):
                lat = rand_lattice(rng, p)
                u, v = lat.canonical.columns()
                assert lat.contains(u) and lat.contains(v)
                assert lat.contains(lat.canonical @ Vec2(1, 1)) and lat.contains(lat.canonical @ Vec2(1, -3))
                # leaving the lattice: dividing a pivot generator by p
                assert not lat.contains(Vec2(u.x / p, u.y / p))

    def test_integral_combinations_stay_inside(self):
        rng = random.Random(26)
        for _ in range(30):
            lat = rand_lattice(rng, 5)
            a = rand_rational(rng, 5, 0, 3)
            b = rand_rational(rng, 5, 0, 3)
            assert lat.contains(lat.canonical @ Vec2(a, b))

    def test_matches_cramer_on_the_user_basis(self):
        # the reference reads only the basis as given: z = B x with x_i = det(B with column i
        # replaced by z) / det B, and z lies in L iff no reduced denominator of x has a factor p
        rng = random.Random(31)
        inside = outside = zero_coordinates = 0
        for p in (*PRIMES, 1000003):
            for _ in range(200):
                basis = rand_basis(rng, p)
                lat = Lattice(basis, p)
                u, v = basis.columns()
                if rng.random() < 0.25:  # a point with a zero coordinate, membership left to chance
                    r = rand_rational(rng, p, -3, 3)
                    z = rng.choice([Vec2(0, r), Vec2(r, 0), Vec2(0, 0)])
                else:
                    c1, c2 = (
                        Fraction(0) if rng.random() < 0.15 else rand_rational(rng, p, -1, 2) for _ in "xy"
                    )
                    z = basis @ Vec2(c1, c2)
                det = u.x * v.y - u.y * v.x
                x1, x2 = (z.x * v.y - z.y * v.x) / det, (u.x * z.y - u.y * z.x) / det
                expected = x1.denominator % p != 0 and x2.denominator % p != 0
                assert lat.contains(z) == expected, (p, str(basis), str(z))
                inside += expected
                outside += not expected
                zero_coordinates += z.x == 0 or z.y == 0
        total = inside + outside
        assert total >= 1000 and min(inside, outside) >= 0.3 * total and zero_coordinates > 0


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
        branches = {True: 0, False: 0}  # a kept at a1, whose slope is stored as is, or raised
        for a, b in pairs:
            meet = a & b
            assert meet.canonical == generic_intersection(a, b)
            branches[meet.a == (a if a.b >= b.b else b).a] += 1
        assert min(branches.values()) >= 100

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
            assert (lat.a, lat.b) == (valuation(k.a, p), valuation(k.d, p))
            assert lat.slope * Fraction(p) ** lat.a == k.c
            # the stored slope is the reduced representative: reducing it again is a no-op
            m = Fraction(p) ** (lat.b - lat.a)
            assert m * fractional_part(lat.slope / m, p) == lat.slope
            assert lat.measure == padic_norm(k.det(), p)
        # the containment gap against exponents and slopes c / p**a read off the two canonical matrices
        others = derived[1:] + derived[:1]
        same_prime = [(x, y) for x, y in zip(derived, others) if x.p == y.p]
        assert len(same_prime) >= 1000
        for x, y in same_prime:
            kx, ky, p = x.canonical, y.canonical, x.p
            ax, bx, ay, by = (valuation(q, p) for q in (kx.a, kx.d, ky.a, ky.d))
            corner = by - ax - valuation(kx.c / kx.a - ky.c / ky.a, p)
            assert x._gap(y) == max(ay - ax, by - bx, corner)

    def test_issubset_matches_linear_solve(self, pairs):
        rng = random.Random(31)
        cases = []
        for a, b in pairs:
            meet = a & b
            cases += [(a, b), (a.scaled(rng.randint(-2, 2)), a), (a, a.dual()), (meet, b), (b, meet)]
        assert len(cases) >= 1000
        verdicts = {True: 0, False: 0}
        seen = set()
        for x, y in cases:
            verdict = x.issubset(y)
            assert verdict == solved_subset(x, y), (x, y)
            verdicts[verdict] += 1
            seen.add((verdict, x.slope == y.slope))
        assert min(verdicts.values()) >= 100
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

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
    """Only raw generators and images are reduced: other derived lattices are built canonical."""

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
        reductions = count_calls(monkeypatch, qpadic.lattice, "_image_of")
        images = count_calls(monkeypatch, Lattice, "_image", lambda lat, g, s: g)
        ops[op]()
        assert len(reductions) == expected
        # the image of a transform goes through the one image helper, which reduces once
        assert len(images) == (op == "transformed")


def fraction_reduced(p: int, a: int, b: int, slope: Fraction) -> Fraction:
    """The slope's representative m * {slope / m}_p, m = p**(b - a), by the Fraction formula.

    The reference for the int kernel: the fractional part comes from the reduced
    Fraction, whose denominator is p**k times a part m coprime to p, with no padic helper.
    """
    q = slope / p_power(p, b - a)
    pk = 1
    while q.denominator % (pk * p) == 0:
        pk *= p
    return p_power(p, b - a) * Fraction(q.numerator * pow(q.denominator // pk, -1, pk) % pk, pk)


class TestImage:
    """The image g * L, reduced on int numerators and denominators, against the generic reduction
    of g * B, and the slope reduction against the Fraction formula."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = random.Random(31)
        cases = []
        for p in (*PRIMES, 100003, 999983, 1000003):
            for _ in range(250):
                lat, g = rand_lattice(rng, p), rand_basis(rng, p)
                if rng.random() < 0.1:  # force g.b = 0
                    g = Mat2(g.a or 1, 0, g.c, g.d or 1)
                cases.append((lat, g))
        return cases

    def test_image_matches_generic_route(self, pairs):
        assert len(pairs) >= 2000
        seen = set()
        for lat, g in pairs:
            p = lat.p
            image = lat.transformed(g)
            generic = generic_reduction(list((g @ lat.basis).columns()), p)
            assert image.canonical == generic
            # the kernel itself: (a', b', sigma') against the generic exponents and slope c / p**a'
            kernel = qpadic.lattice._image_of(p, lat.a, lat.b, lat.slope, g, valuation(g.det(), p))
            assert kernel == (valuation(generic.a, p), valuation(generic.d, p), generic.c / generic.a)
            k = g @ lat.canonical
            v1, v2 = valuation(k.a, p), valuation(k.b, p)
            if g.b == 0:
                seen.add("g.b = 0")
            elif v1 == v2:
                seen.add("tied first row")
            else:
                seen.add(f"pivot in column {1 if v1 < v2 else 2}")
            if lat.b < lat.a:
                seen.add("b < a")
            if lat.slope != 0 and valuation(lat.slope, p) < 0:
                seen.add("negative slope valuation in")
            if lat.canonical.c != 0 and valuation(lat.canonical.c, p) < 0:
                seen.add("negative corner in")
            if image.canonical.c != 0 and valuation(image.canonical.c, p) < 0:
                seen.add("negative corner out")
            if any(q != 0 and valuation(q, p) < 0 for q in (g.a, g.b, g.c, g.d)):
                seen.add("p in a denominator of g")
            if p > 11 and image.canonical.c != 0:
                seen.add("nonzero corner at a large prime")
        assert seen == {
            "g.b = 0",
            "tied first row",
            "pivot in column 1",
            "pivot in column 2",
            "b < a",
            "negative slope valuation in",
            "negative corner in",
            "negative corner out",
            "p in a denominator of g",
            "nonzero corner at a large prime",
        }

    def test_reduced_matches_fraction_formula(self):
        # unreduced pairs: a common factor, p-powers on both sides and either sign of den
        rng = random.Random(32)
        seen = set()
        for i in range(4000):
            p = (*PRIMES, 100003, 999983, 1000003)[i % 8]
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
            common = rng.choice([1, p, p**3, 6 * p, rng.randint(1, 10**6)])
            num = rng.choice([0, 1, -1]) if i % 50 == 0 else rng.randint(-(10**9), 10**9)
            num *= p ** rng.randint(0, 4) * common
            den = rng.choice([1, -1]) * p ** rng.randint(0, 8) * rng.randint(1, 10**6) * common
            sigma = qpadic.lattice._reduced(Prime(p), a, b, num, den)
            assert sigma == (a, b, fraction_reduced(p, a, b, Fraction(num, den)))
            if sigma[2] != 0:
                v = valuation(sigma[2], p)
                seen.add("negative valuation out" if v < 0 else "integral out")
                if valuation(Fraction(num, den), p) < b - a - 1:
                    seen.add("two or more digits")
            if den < 0 and den % p == 0 and sigma[2] != 0:
                seen.add("negative den with p in it")
        assert seen == {
            "negative valuation out",
            "integral out",
            "two or more digits",
            "negative den with p in it",
        }

    def test_pinned_image(self):
        # K^-1 [[3, 0], [0, 1]] = [[3/5, -1], [0, 1]] pivots on column 2 (valuation 0 < 1):
        # a = 0, b = v(3/5) - 0 = 1, corner 3 * {(1 / -1) / 3}_3 = 3 * 2/3 = 2
        lat = Lattice(Mat2.parse("0,3;1,9"), 3)
        assert str(lat.transformed(Mat2.parse("5,5;0,1").inverse()).canonical) == "1,0;2,3"


class TestPrimeCarried:
    """A lattice holds the Prime it was built at, so no operation on it tests p again."""

    @pytest.mark.parametrize("p", [3, 1000003])
    def test_operations_make_no_prime_test(self, monkeypatch, p):
        a = Lattice(Mat2.parse(f"{p},1;1/{p},2"), p)
        b = Lattice(Mat2.parse(f"1/{p * p},0;5,{p**3}"), p)
        state = GaussianState(a.scaled(1), Vec2(1, Fraction(1, p)))
        channel = GaussianChannel(Mat2.diagonal(p, 1), standard_lattice(p))
        assert type(a.p) is Prime and type(state.p) is Prime and type(channel.p) is Prime
        calls = count_calls(monkeypatch, qpadic.padic, "is_prime")
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
