import pytest

from ssetkit.core import (
    SimplexRef,
    SimplicialMap,
    boundary,
    compose,
    empty_sset,
    enumerate_maps,
    identity,
    simplex,
    validate,
)
from ssetkit.colimits import coproduct
from ssetkit.cells import StageData, j_to_i_presentation, realize
from ssetkit.lifting import check_rlp
from ssetkit.factorization import (
    factorize,
    induced_factorization_map,
    verify_factorization,
)


def the_map(a, x):
    maps = enumerate_maps(a, x)
    assert len(maps) == 1
    return maps[0]


def point_insertion():
    return SimplicialMap(empty_sset(), simplex(0), {})


class TestFactorize:
    def test_point_insertion_reduced(self):
        r = factorize(point_insertion(), "I", cap=2, mode="reduced", budget=5)
        assert r.converged
        assert r.stages_run == 2
        assert r.middle.size() == 1
        # the projection is the identity up to the naming of the one vertex
        img = r.right.images[r.middle.simplices(0)[0]]
        assert img == SimplexRef("0") and not img.word
        assert compose(r.right, r.left) == r.f

    def test_point_identity_faithful_budget1(self):
        r = factorize(identity(simplex(0)), "I", cap=0, mode="faithful",
                      budget=1)
        assert not r.converged
        assert len(r.middle.simplices(0)) == 2
        assert r.residual == []
        assert compose(r.right, r.left) == r.f

    def test_boundary_collapse_j_converges_immediately(self):
        r = factorize(the_map(boundary(1), simplex(0)), "J", cap=2,
                      mode="reduced")
        assert r.converged
        assert r.stages_run == 1
        assert r.left == identity(boundary(1))
        assert r.right == r.f

    def test_negative_cap_is_refused(self):
        # an empty family would converge vacuously and pass the verifier
        with pytest.raises(ValueError, match="cap must be >= 0"):
            factorize(the_map(boundary(1), simplex(0)), "I", cap=-1)

    def test_budget_zero_reports_residual(self):
        r = factorize(point_insertion(), "I", cap=2, mode="reduced", budget=0)
        assert not r.converged
        assert r.residual
        assert r.middle.is_empty

    def test_composite_invariant_on_varied_runs(self):
        cases = [
            (point_insertion(), "I", 2, "reduced", 5),
            (point_insertion(), "J", 2, "reduced", 5),
            (identity(simplex(0)), "I", 1, "faithful", 1),
            (the_map(boundary(1), simplex(0)), "I", 1, "reduced", 3),
            (the_map(simplex(1), simplex(0)), "I", 2, "reduced", 4),
        ]
        for f, kind, cap, mode, budget in cases:
            r = factorize(f, kind, cap=cap, mode=mode, budget=budget)
            assert compose(r.right, r.left) == f
            assert validate(r.middle).ok

    def test_converged_run_passes_rlp(self):
        r = factorize(the_map(boundary(1), simplex(0)), "I", cap=1,
                      mode="reduced", budget=4)
        if r.converged:
            assert check_rlp(r.right, "I", 1).passed

    def test_stage_solvability(self):
        for f, kind in [(point_insertion(), "I"),
                        (the_map(boundary(1), simplex(0)), "I")]:
            r = factorize(f, kind, cap=1, mode="reduced", budget=3)
            report = verify_factorization(r)
            assert report.ok, str(report)

    def test_presentation_realizes_to_left(self):
        r = factorize(point_insertion(), "I", cap=2, mode="reduced")
        fresh = realize(r.presentation)
        assert fresh.composite() == r.left

    def test_j_run_presentation_converts(self):
        # a run against horns yields a horn presentation convertible to a
        # boundary presentation realizing isomorphically (the conversion
        # itself verifies the isomorphism)
        base = simplex(0)
        target = simplex(1)
        f = SimplicialMap(base, target, {"0": SimplexRef("0")})
        r = factorize(f, "J", cap=1, mode="reduced", budget=3)
        assert r.presentation.attachment_count() >= 1
        converted, iso = j_to_i_presentation(r.presentation)
        assert converted.attachment_count() == \
            2 * r.presentation.attachment_count()

    def test_early_born_tops_solve_on_capped_runs(self):
        r = factorize(the_map(boundary(1), simplex(0)), "I", cap=2,
                      mode="reduced", budget=1)
        assert not r.converged
        before = r.stages[-2].w
        assert any(all(before.has(ref.base) for ref in sq.top.img)
                   for _, sq in r.stages[-1].squares)
        assert verify_factorization(r).ok


class TestVerifyFactorization:
    def test_reduced_run_verifies(self):
        r = factorize(point_insertion(), "I", cap=2, mode="reduced")
        rep = verify_factorization(r)
        assert rep.ok, str(rep)

    def test_budget_zero_residual_verified(self):
        r = factorize(point_insertion(), "I", cap=1, mode="reduced", budget=0)
        rep = verify_factorization(r)
        assert rep.ok, str(rep)
        assert r.residual

    def test_tampered_composite_flagged(self):
        r = factorize(point_insertion(), "I", cap=1, mode="reduced")
        other = SimplicialMap(empty_sset(), r.f.target, {})
        tampered = type(r)(
            f=SimplicialMap(empty_sset(), simplex(1), {}),
            kind=r.kind, cap=r.cap, mode=r.mode, budget=r.budget,
            left=r.left, right=r.right, presentation=r.presentation,
            stages=r.stages, residual=r.residual, converged=r.converged)
        rep = verify_factorization(tampered)
        assert not rep.ok
        assert any("composite" in line for line in rep.issues)


class TestFunctoriality:
    def test_identity_square_induces_identities(self):
        f = point_insertion()
        r = factorize(f, "I", cap=0, mode="faithful", budget=2)
        maps = induced_factorization_map(identity(f.source),
                                         identity(f.target), r, r)
        for k, h in enumerate(maps):
            w = r.stages[k].w if k < len(r.stages) else r.stages[-1].w
            assert h == identity(w)

    def test_injection_square(self):
        f = point_insertion()
        two, injs = coproduct([simplex(0), simplex(0)])
        f2 = SimplicialMap(empty_sset(), two, {})
        r = factorize(f, "I", cap=0, mode="faithful", budget=1)
        r2 = factorize(f2, "I", cap=0, mode="faithful", budget=1)
        maps = induced_factorization_map(
            identity(empty_sset()), injs[0], r, r2)
        # stage-1 map sends the attached vertex to a correspondingly
        # attached vertex and commutes with the projections
        assert len(maps) == 2
        assert compose(r2.stages[1].p, maps[1]) == \
            compose(injs[0], r.stages[1].p)

    def test_composition_of_squares(self):
        f = point_insertion()
        two, injs = coproduct([simplex(0), simplex(0)])
        f2 = SimplicialMap(empty_sset(), two, {})
        three, injs3 = coproduct([two, simplex(0)])
        f3 = SimplicialMap(empty_sset(), three, {})
        r = factorize(f, "I", cap=0, mode="faithful", budget=1)
        r2 = factorize(f2, "I", cap=0, mode="faithful", budget=1)
        r3 = factorize(f3, "I", cap=0, mode="faithful", budget=1)
        e = identity(empty_sset())
        m12 = induced_factorization_map(e, injs[0], r, r2)
        m23 = induced_factorization_map(e, injs3[0], r2, r3)
        m13 = induced_factorization_map(
            e, compose(injs3[0], injs[0]), r, r3)
        for h13, h12, h23 in zip(m13, m12, m23):
            assert h13 == compose(h23, h12)

    def test_reduced_mode_refused(self):
        r = factorize(point_insertion(), "I", cap=0, mode="reduced")
        with pytest.raises(ValueError, match="faithful"):
            induced_factorization_map(identity(r.f.source),
                                      identity(r.f.target), r, r)

    def test_identity_padding_when_first_run_stabilizes(self):
        # the empty-to-empty map has no squares at all, so its faithful run
        # attaches nothing; mapping it into a longer run pads with identity
        # stages
        e = SimplicialMap(empty_sset(), empty_sset(), {})
        r = factorize(e, "I", cap=0, mode="faithful", budget=2)
        assert r.converged and len(r.realization.stage_data) == 0
        r2 = factorize(point_insertion(), "I", cap=0, mode="faithful",
                       budget=2)
        maps = induced_factorization_map(
            identity(empty_sset()), SimplicialMap(empty_sset(), simplex(0), {}),
            r, r2)
        assert len(maps) == len(r2.realization.stage_data) + 1
        for k, h in enumerate(maps):
            assert h.source.is_empty
            assert h.target == r2.stages[k].w


# ---------------------------------------------------------------------------
# Every guard of factorize and induced_factorization_map raises; the two
# that guard against the library's own faults are reached by planted ones

def faithful(f, cap=0, budget=1):
    return factorize(f, "I", cap=cap, mode="faithful", budget=budget)


def point_runs(budget=1, budget2=1, cap2=0):
    """An identity square on the point insertion and faithful runs of it."""
    f = point_insertion()
    return (identity(f.source), identity(f.target), faithful(f, 0, budget),
            faithful(f, cap2, budget2))


def square_that_does_not_commute(mp):
    # the vertex 0 of the edge, and v moving the edge onto its vertex 1
    f = SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})
    v = SimplicialMap(simplex(1), simplex(1), {
        "0": SimplexRef("1"), "1": SimplexRef("1"),
        "01": SimplexRef("1", (0,))})
    r = faithful(f)
    induced_factorization_map(identity(simplex(0)), v, r, r)


def second_run_without_squares(mp):
    # the planted fault: the second run's stage lost the squares its cells
    # were attached for
    u, v, r, r2 = point_runs()
    mp.setattr(r2.stages[0], "squares", [])
    induced_factorization_map(u, v, r, r2)


def induced_answers_another_map(mp):
    # the planted fault: a stage's induced map is some other map, here the
    # vertex of W_1 sent to the cell of the square over the other point
    two, injs = coproduct([simplex(0), simplex(0)])
    r = faithful(point_insertion())
    r2 = faithful(SimplicialMap(empty_sset(), two, {}))
    right = StageData.induced

    def planted(stage, cell_maps, from_c):
        h = right(stage, cell_maps, from_c)
        return next(m for m in enumerate_maps(h.source, h.target) if m != h)

    mp.setattr(StageData, "induced", planted)
    induced_factorization_map(identity(empty_sset()), injs[0], r, r2)


FACTORIZATION_GUARDS = [
    ("mode", lambda mp: factorize(point_insertion(), "I", mode="lazy"),
     ValueError, "unknown mode 'lazy'"),
    ("budget", lambda mp: factorize(point_insertion(), "I", budget=-1),
     ValueError, "stage budget must be >= 0"),
    ("cap-mismatch", lambda mp: induced_factorization_map(
        *point_runs(cap2=1)), ValueError,
     "generator family or cap mismatch"),
    ("square", square_that_does_not_commute, ValueError,
     "input square does not commute"),
    ("second-run-shorter", lambda mp: induced_factorization_map(
        *point_runs(budget=2, budget2=1)), ValueError,
     "second run stopped before the first"),
    ("no-cell", second_run_without_squares, RuntimeError,
     "composed square has no cell in the second run"),
    ("stagewise", induced_answers_another_map, RuntimeError,
     "stage 1 does not commute with the projections"),
]


@pytest.mark.parametrize("case,exc,match",
                         [g[1:] for g in FACTORIZATION_GUARDS],
                         ids=[g[0] for g in FACTORIZATION_GUARDS])
def test_every_guard_raises(case, exc, match, monkeypatch):
    with pytest.raises(exc, match=match):
        case(monkeypatch)
