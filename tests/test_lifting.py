import random

import pytest

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary,
    boundary_inclusion,
    compose,
    empty_sset,
    enumerate_maps,
    horn_inclusion,
    identity,
    simplex,
)
from ssetkit import lifting
from ssetkit.colimits import coproduct, pushout, sequential_colimit
from ssetkit.lifting import (
    Lift,
    LiftTransferError,
    LiftingProblem,
    NoLift,
    RetractDiagram,
    check_rlp,
    enumerate_squares,
    generator,
    generator_family,
    lift_via_composition,
    lift_via_coproduct,
    lift_via_pushout,
    lift_via_retract,
    retract_argument,
    solve_lift,
    verify_lift,
)
from ssetkit.lifting import _restricts_to


def circle():
    return FiniteSimplicialSet(
        {0: ["v"], 1: ["e"]},
        {"e": [SimplexRef("v"), SimplexRef("v")]})


def the_map(a, x):
    maps = enumerate_maps(a, x)
    assert len(maps) == 1
    return maps[0]


def brute_force_lifts(problem):
    return [h for h in enumerate_maps(problem.left.target, problem.right.source)
            if verify_lift(problem, h)]


class TestSolveLift:
    def test_identity_right_map(self):
        i = boundary_inclusion(1)
        p = LiftingProblem(i, identity(simplex(1)),
                           compose(identity(simplex(1)), i), identity(simplex(1)))
        out = solve_lift(p)
        assert isinstance(out, Lift)
        assert out.diagonal == p.bottom

    def test_no_lift_boundary_retraction(self):
        # there is no retraction of the interval onto its boundary
        i = boundary_inclusion(1)
        f = the_map(boundary(1), simplex(0))
        p = LiftingProblem(i, f, identity(boundary(1)),
                           the_map(simplex(1), simplex(0)))
        out = solve_lift(p)
        assert isinstance(out, NoLift)
        assert out.refuted > 0

    def test_horn_square_always_fillable(self):
        i = horn_inclusion(1, 0)
        f = the_map(simplex(1), simplex(0))
        for square in enumerate_squares(i, f):
            assert isinstance(solve_lift(square), Lift)

    def test_returns_least_diagonal(self):
        i = SimplicialMap(empty_sset(), simplex(0), {})
        f = the_map(simplex(0), simplex(0))
        x2, _ = coproduct([simplex(0), simplex(0)])
        f2 = the_map(x2, simplex(0))
        p = LiftingProblem(i, f2, SimplicialMap(empty_sset(), x2, {}),
                           identity(simplex(0)))
        out = solve_lift(p)
        lifts = brute_force_lifts(p)
        assert out.diagonal == min(lifts, key=lambda h: h.sort_key())

    def test_agrees_with_brute_force(self):
        rng = random.Random(7)
        pool = [simplex(0), simplex(1), boundary(1), boundary(2), circle()]
        checked = 0
        for _ in range(200):
            a, b, x, y = (rng.choice(pool) for _ in range(4))
            homs_i = enumerate_maps(a, b)
            homs_f = enumerate_maps(x, y)
            if not homs_i or not homs_f:
                continue
            i = rng.choice(homs_i)
            f = rng.choice(homs_f)
            squares = enumerate_squares(i, f)
            if not squares:
                continue
            p = rng.choice(squares)
            out = solve_lift(p)
            brute = brute_force_lifts(p)
            if brute:
                assert isinstance(out, Lift)
                assert out.diagonal == min(brute, key=lambda h: h.sort_key())
            else:
                assert isinstance(out, NoLift)
            checked += 1
        assert checked >= 100

    def test_noncommuting_square_rejected(self):
        i = boundary_inclusion(1)
        constant = enumerate_maps(boundary(1), simplex(1))[0]
        with pytest.raises(ValueError):
            LiftingProblem(i, identity(simplex(1)), constant,
                           identity(simplex(1)))


class TestRestriction:
    """`_restricts_to(w, i, top)` is `compose(w, i) == top`, read by
    position when every image of i is nondegenerate."""

    def test_equals_the_composite(self):
        lefts = [g for kind in ("I", "J")
                 for _, g in generator_family(kind, 2)]
        lefts += [the_map(simplex(1), simplex(0)),
                  the_map(boundary(1), simplex(0))]
        targets = [simplex(0), simplex(1), circle(), boundary(2)]
        checked = agreed = 0
        for i in lefts:
            for x in targets:
                for w in enumerate_maps(i.target, x):
                    for y in targets:
                        for top in enumerate_maps(i.source, y):
                            want = compose(w, i) == top
                            assert _restricts_to(w, i, top) == want
                            checked += 1
                            agreed += want
        assert checked > 1000 and agreed > 100

    def test_refuses_what_compose_refuses(self):
        i = boundary_inclusion(1)
        with pytest.raises(ValueError, match="^compose: target of first"):
            _restricts_to(identity(simplex(0)), i, the_map(boundary(1),
                                                          simplex(0)))
        w = SimplicialMap(simplex(1), simplex(1), {"01": SimplexRef("01")})
        with pytest.raises(ValueError, match="^compose: no image for 0$"):
            _restricts_to(w, i, i)


class TestEnumerateSquares:
    def test_point_identity(self):
        i = SimplicialMap(empty_sset(), simplex(0), {})
        assert len(enumerate_squares(i, identity(simplex(0)))) == 1

    def test_boundary_squares(self):
        i = boundary_inclusion(1)
        f = the_map(boundary(1), simplex(0))
        assert len(enumerate_squares(i, f)) == 4

    def test_empty_target_no_squares(self):
        i = boundary_inclusion(1)
        f = SimplicialMap(empty_sset(), simplex(0), {})
        assert enumerate_squares(i, f) == []


class TestCheckRLP:
    def test_identity_passes_i(self):
        rep = check_rlp(identity(simplex(0)), "I", 3)
        assert rep.passed

    def test_boundary_collapse_fails_i(self):
        rep = check_rlp(the_map(boundary(1), simplex(0)), "I", 1)
        assert not rep.passed
        assert any("unsolved" in line for line in rep.lines())

    def test_boundary_collapse_passes_j(self):
        rep = check_rlp(the_map(boundary(1), simplex(0)), "J", 2)
        assert rep.passed

    def test_family_labels(self):
        labels = [label for label, _ in generator_family("J", 2)]
        assert labels == [("J", 1, 0), ("J", 1, 1),
                          ("J", 2, 0), ("J", 2, 1), ("J", 2, 2)]

    @pytest.mark.parametrize("kind", ["I", "J"])
    def test_negative_cap_is_refused(self, kind):
        # an empty family would pass every map vacuously
        with pytest.raises(ValueError, match="cap must be >= 0"):
            generator_family(kind, -1)
        with pytest.raises(ValueError, match="cap must be >= 0"):
            check_rlp(the_map(boundary(1), simplex(0)), kind, -1)


class TestLiftViaRetract:
    def trivial_diagram(self, i):
        return RetractDiagram(
            i=i, j=i,
            a_in=identity(i.source), a_out=identity(i.source),
            b_in=identity(i.target), b_out=identity(i.target))

    def test_self_retract_transfers_direct_lift(self):
        i = boundary_inclusion(1)
        p = LiftingProblem(i, identity(simplex(1)), i, identity(simplex(1)))
        out = lift_via_retract(self.trivial_diagram(i), p)
        assert verify_lift(p, out.diagonal)
        assert out.diagonal == solve_lift(p).diagonal

    def test_retract_of_coproduct(self):
        # exhibit i as a retract of i + i via inclusion/fold
        i = boundary_inclusion(1)
        a2, a_injs = coproduct([i.source, i.source])
        b2, b_injs = coproduct([i.target, i.target])
        j = SimplicialMap(a2, b2, {
            inj.images[n].base: b_injs[t](i.images[n])
            for t, inj in enumerate(a_injs) for n in i.source.names()})
        fold_a = SimplicialMap(a2, i.source, {
            inj.images[n].base: SimplexRef(n)
            for inj in a_injs for n in i.source.names()})
        fold_b = SimplicialMap(b2, i.target, {
            inj.images[n].base: SimplexRef(n)
            for inj in b_injs for n in i.target.names()})
        diagram = RetractDiagram(i=i, j=j,
                                 a_in=a_injs[0], a_out=fold_a,
                                 b_in=b_injs[0], b_out=fold_b)
        p = LiftingProblem(i, identity(simplex(1)), i, identity(simplex(1)))
        out = lift_via_retract(diagram, p)
        assert verify_lift(p, out.diagonal)

    def test_unsolvable_inner_square(self):
        i = boundary_inclusion(1)
        f = the_map(boundary(1), simplex(0))
        p = LiftingProblem(i, f, identity(boundary(1)),
                           the_map(simplex(1), simplex(0)))
        with pytest.raises(LiftTransferError):
            lift_via_retract(self.trivial_diagram(i), p)


class TestLiftViaPushout:
    def test_circle_identity(self):
        p = pushout(boundary_inclusion(1), the_map(boundary(1), simplex(0)))
        c = p.corner
        square = LiftingProblem(p.leg_from_c, identity(c),
                                p.leg_from_c, identity(c))
        w = compose(identity(c), p.leg_from_b)
        out = lift_via_pushout(p, square, w)
        assert out.diagonal == identity(c)

    def test_random_cocones(self):
        rng = random.Random(11)
        p = pushout(boundary_inclusion(1), identity(boundary(1)))
        targets = [simplex(0), simplex(1), circle()]
        count = 0
        for t in targets:
            for h in enumerate_maps(p.corner, t):
                w = compose(h, p.leg_from_b)
                square = LiftingProblem(p.leg_from_c, identity(t),
                                        compose(h, p.leg_from_c), h)
                out = lift_via_pushout(p, square, w)
                assert verify_lift(square, out.diagonal)
                count += 1
        assert count > 0

    def test_bad_w_rejected(self):
        # a w that forms a commuting cocone but solves the wrong square:
        # the induced map fails the bottom triangle and is refused
        p = pushout(boundary_inclusion(1), the_map(boundary(1), simplex(0)))
        c = p.corner
        square = LiftingProblem(p.leg_from_c, identity(c),
                                p.leg_from_c, identity(c))
        degenerate = [m for m in enumerate_maps(simplex(1), c)
                      if m.images["01"].word]
        with pytest.raises(LiftTransferError):
            lift_via_pushout(p, square, degenerate[0])


class TestLiftViaCoproduct:
    def test_single_summand(self):
        i = boundary_inclusion(1)
        p = LiftingProblem(i, identity(simplex(1)), i, identity(simplex(1)))
        w = solve_lift(p)
        assembled, out = lift_via_coproduct([p], [w])
        assert verify_lift(assembled, out.diagonal)

    def test_two_point_insertions(self):
        i = SimplicialMap(empty_sset(), simplex(0), {})
        f = identity(simplex(0))
        p = LiftingProblem(i, f, SimplicialMap(empty_sset(), simplex(0), {}),
                           identity(simplex(0)))
        w = solve_lift(p)
        assembled, out = lift_via_coproduct([p, p], [w, w])
        assert verify_lift(assembled, out.diagonal)
        assert assembled.left.source.is_empty
        assert assembled.left.target.size() == 2

    def test_mixed_dimensions(self):
        f = the_map(simplex(2), simplex(0))
        problems, lifts = [], []
        for i in (boundary_inclusion(1), horn_inclusion(2, 1)):
            w = enumerate_maps(i.target, simplex(2))[0]
            problems.append(LiftingProblem(
                i, f, compose(w, i), compose(f, w)))
            lifts.append(Lift(w))
        assembled, out = lift_via_coproduct(problems, lifts)
        assert verify_lift(assembled, out.diagonal)

    def test_missing_lift(self):
        i = boundary_inclusion(1)
        p = LiftingProblem(i, identity(simplex(1)), i, identity(simplex(1)))
        with pytest.raises(LiftTransferError):
            lift_via_coproduct([p, p], [solve_lift(p)])


class TestLiftViaComposition:
    def test_single_stage(self):
        rec = sequential_colimit(
            [SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})])
        comp = rec.composite()
        p = LiftingProblem(comp, identity(simplex(1)), comp,
                           identity(simplex(1)))
        out = lift_via_composition(rec, p)
        assert verify_lift(p, out.diagonal)

    def test_circle_stages(self):
        c = circle()
        inc0 = SimplicialMap(empty_sset(), simplex(0), {})
        inc1 = SimplicialMap(simplex(0), c, {"0": SimplexRef("v")})
        rec = sequential_colimit([inc0, inc1])
        comp = rec.composite()
        p = LiftingProblem(comp, identity(c), comp, identity(c))
        out = lift_via_composition(rec, p)
        assert verify_lift(p, out.diagonal)

    def test_failing_stage_reported(self):
        inc = SimplicialMap(boundary(1), simplex(1),
                            {n: SimplexRef(n) for n in boundary(1).names()})
        rec = sequential_colimit([inc])
        f = the_map(boundary(1), simplex(0))
        p = LiftingProblem(rec.composite(), f, identity(boundary(1)),
                           the_map(simplex(1), simplex(0)))
        with pytest.raises(LiftTransferError, match="stage 0"):
            lift_via_composition(rec, p)


class TestRetractArgument:
    def test_all_identities(self):
        g = identity(simplex(0))
        d = retract_argument(g, g, g, Lift(g))
        assert d.i == g and d.j == g

    def test_point_insertion(self):
        g = SimplicialMap(empty_sset(), simplex(0), {})
        d = retract_argument(g, g, identity(simplex(0)),
                             Lift(identity(simplex(0))))
        assert isinstance(d, RetractDiagram)

    def test_bad_q_rejected(self):
        i = boundary_inclusion(1)
        f = the_map(simplex(1), simplex(0))
        g = compose(f, i)
        # q must satisfy q . g = i; a constant map does not
        bad = enumerate_maps(simplex(0), simplex(1))[0]
        with pytest.raises(LiftTransferError):
            retract_argument(g, i, f, Lift(bad))

    def test_rederive_lift_from_output(self):
        # the output diagram transfers lifts back onto g
        g = SimplicialMap(empty_sset(), simplex(0), {})
        d = retract_argument(g, g, identity(simplex(0)),
                             Lift(identity(simplex(0))))
        p = LiftingProblem(g, identity(simplex(0)),
                           SimplicialMap(empty_sset(), simplex(0), {}),
                           identity(simplex(0)))
        out = lift_via_retract(d, p)
        assert verify_lift(p, out.diagonal)


# ---------------------------------------------------------------------------
# Every guard of the lifting module, one case each.  A guard against the
# library's own fault is reached through a planted defect: a solver that
# returns a diagonal it never checked, or a composition with a wrong
# shortcut for identities.

def interval_square():
    i = boundary_inclusion(1)
    return LiftingProblem(i, identity(simplex(1)), i, identity(simplex(1)))


def constant_on_interval():
    # Delta^1 -> Delta^1 through vertex 0: fails the bottom triangle of
    # `interval_square`
    return SimplicialMap(simplex(1), simplex(1), {
        "0": SimplexRef("0"), "1": SimplexRef("0"),
        "01": SimplexRef("0", (0,))})


def point_into_interval():
    return SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})


def retract(**maps):
    # i : ∂Δ¹ -> Δ¹ as a retract of itself by identities, with some maps
    # replaced
    i = boundary_inclusion(1)
    given = dict(i=i, j=i, a_in=identity(i.source), a_out=identity(i.source),
                 b_in=identity(i.target), b_out=identity(i.target))
    return RetractDiagram(**{**given, **maps})


def right_square_fails():
    # the point into Delta^1 as a "retract" of both vertices into it: every
    # check holds up to the right square, which sees j send vertex 1 to 1
    two = boundary(1)
    RetractDiagram(
        i=point_into_interval(), j=boundary_inclusion(1),
        a_in=SimplicialMap(simplex(0), two, {"0": SimplexRef("0")}),
        a_out=SimplicialMap(two, simplex(0), {"0": SimplexRef("0"),
                                               "1": SimplexRef("0")}),
        b_in=identity(simplex(1)), b_out=identity(simplex(1)))


def outer_square_fails(monkeypatch):
    # with a sound composition the outer square follows from the others;
    # the planted fault answers g . id with id
    two = boundary(1)
    i = point_into_interval()
    monkeypatch.setattr(lifting, "compose", lambda g, f: f if f == identity(
        f.source) else compose(g, f))
    RetractDiagram(
        i=i, j=compose(i, SimplicialMap(two, simplex(0), {
            "0": SimplexRef("0"), "1": SimplexRef("0")})),
        a_in=SimplicialMap(simplex(0), two, {"0": SimplexRef("0")}),
        a_out=SimplicialMap(two, simplex(0), {"0": SimplexRef("0"),
                                               "1": SimplexRef("0")}),
        b_in=identity(simplex(1)), b_out=identity(simplex(1)))


def unchecked_solver(monkeypatch):
    # the planted fault: a solver whose diagonal fails its triangles
    monkeypatch.setattr(lifting, "solve_lift",
                        lambda problem: Lift(constant_on_interval()))


def retract_transfer_fails(monkeypatch):
    unchecked_solver(monkeypatch)
    lift_via_retract(retract(), interval_square())


def pushout_square():
    # the pushout of ∂Δ¹ -> Δ¹ along the identity of ∂Δ¹
    p = pushout(boundary_inclusion(1), identity(boundary(1)))
    c = identity(p.corner)
    return p, LiftingProblem(p.leg_from_c, c, p.leg_from_c, c)


def pushout_wrong_leg():
    p, _ = pushout_square()
    c = identity(p.corner)
    lift_via_pushout(p, LiftingProblem(p.leg_from_b, c, p.leg_from_b, c),
                     identity(simplex(1)))


def pushout_no_cocone():
    # w sends both ends of the edge to one vertex, the top map to two
    p, square = pushout_square()
    w = [m for m in enumerate_maps(simplex(1), p.corner)
         if m.images["01"].word][0]
    lift_via_pushout(p, square, w)


def coproduct_rights_disagree():
    p = interval_square()
    f = the_map(simplex(1), simplex(0))
    q = LiftingProblem(p.left, f, compose(identity(simplex(1)), p.left),
                       the_map(simplex(1), simplex(0)))
    lift_via_coproduct([p, q], [solve_lift(p), solve_lift(q)])


def one_stage():
    rec = sequential_colimit([point_into_interval()])
    comp = rec.composite()
    return rec, LiftingProblem(comp, identity(simplex(1)), comp,
                               identity(simplex(1)))


def composition_wrong_left():
    rec, _ = one_stage()
    lift_via_composition(rec, interval_square())


def composition_assembly_fails(monkeypatch):
    unchecked_solver(monkeypatch)
    lift_via_composition(*one_stage())


GUARDS = [
    ("top-endpoints", lambda mp: LiftingProblem(
        boundary_inclusion(1), identity(simplex(1)), identity(simplex(1)),
        identity(simplex(1))), ValueError, "top map endpoints"),
    ("bottom-endpoints", lambda mp: LiftingProblem(
        boundary_inclusion(1), identity(simplex(1)), boundary_inclusion(1),
        identity(boundary(1))), ValueError, "bottom map endpoints"),
    ("generator-kind", lambda mp: generator("K", 1), ValueError,
     "unknown generator kind 'K'"),
    ("generator-horn-without-k", lambda mp: generator("J", 2), ValueError,
     "horn generator needs k"),
    ("generator-boundary-with-k", lambda mp: generator("I", 1, 7),
     ValueError, "boundary generator takes no k"),
    ("generator-float-n", lambda mp: generator("I", 2.0), ValueError,
     r"generator dimension 2\.0 is not an integer"),
    ("generator-float-k", lambda mp: generator("J", 2, 1.0), ValueError,
     r"horn index 1\.0 is not an integer"),
    ("generator-bool-n", lambda mp: generator("J", True, 0), ValueError,
     "generator dimension True is not an integer"),
    ("generator-bool-k", lambda mp: generator("J", 1, False), ValueError,
     "horn index False is not an integer"),
    ("family-kind", lambda mp: generator_family("K", 1), ValueError,
     "unknown generator family 'K'"),
    ("retract-top", lambda mp: retract(a_out=SimplicialMap(
        boundary(1), boundary(1), {"0": SimplexRef("0"),
                                   "1": SimplexRef("0")})),
     ValueError, "top composite is not the identity"),
    ("retract-bottom", lambda mp: retract(b_out=constant_on_interval()),
     ValueError, "bottom composite is not the identity"),
    ("retract-left", lambda mp: retract(j=compose(
        constant_on_interval(), boundary_inclusion(1))),
     ValueError, "left square does not commute"),
    ("retract-right", lambda mp: right_square_fails(), ValueError,
     "right square does not commute"),
    ("retract-outer", outer_square_fails, ValueError,
     "outer square does not commute"),
    ("retract-wrong-left", lambda mp: lift_via_retract(
        retract(), LiftingProblem(horn_inclusion(1, 0), identity(simplex(1)),
                                  horn_inclusion(1, 0), identity(simplex(1)))),
     ValueError, "not a square for i"),
    ("retract-transfer", retract_transfer_fails, LiftTransferError,
     "transferred map fails its triangles"),
    ("pushout-wrong-leg", lambda mp: pushout_wrong_leg(), ValueError,
     "not a square for the pushout leg"),
    ("pushout-no-cocone", lambda mp: pushout_no_cocone(), LiftTransferError,
     "cocone does not commute"),
    ("coproduct-rights", lambda mp: coproduct_rights_disagree(),
     LiftTransferError, "disagree on the right map"),
    ("coproduct-assembly", lambda mp: lift_via_coproduct(
        [interval_square()], [Lift(constant_on_interval())]),
     LiftTransferError, "assembled diagonal fails its triangles"),
    ("composition-wrong-left", lambda mp: composition_wrong_left(),
     ValueError, "not the chain composite"),
    ("composition-assembly", composition_assembly_fails, LiftTransferError,
     "assembled diagonal fails its triangles"),
    ("retract-argument", lambda mp: retract_argument(
        boundary_inclusion(1), boundary_inclusion(1), constant_on_interval(),
        Lift(identity(simplex(1)))), ValueError, r"g != p \. i"),
]


@pytest.mark.parametrize("case,exc,match", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_every_guard_raises(case, exc, match, monkeypatch):
    with pytest.raises(exc, match=match):
        case(monkeypatch)
