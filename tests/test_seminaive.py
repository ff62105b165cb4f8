"""Semi-naive factorization rounds and the witness-checked verifier against
the code they replaced (`naive_factorization`): the same stages, squares,
cells, residuals and reports, the same verification issues, fewer searches,
and every planted defect reported."""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_factorization as naive
from instances import TINY_POOL, circle
from test_acceptance import _factorization_corpus
from ssetkit import cells, factorization, formats, lifting
from ssetkit.cells import (
    Attachment,
    PresentationBuilder,
    realize,
)
from ssetkit.core import (
    SimplexRef,
    SimplicialMap,
    boundary,
    boundary_inclusion,
    compose,
    empty_sset,
    enumerate_maps,
    identity,
    simplex,
)
from ssetkit.factorization import (
    FactorStage,
    FactorizationResult,
    factorize,
    verify_factorization,
)
from ssetkit.formats import print_soa
from ssetkit.lifting import (
    Lift,
    LiftingProblem,
    enumerate_squares,
    generator_family,
    solve_lift,
    verify_lift,
)


DATA = pathlib.Path(__file__).parent / "data"


def assert_same_run(new, old):
    assert new.converged == old.converged
    assert len(new.stages) == len(old.stages)
    for got, want in zip(new.stages, old.stages):
        assert got.w == want.w
        assert got.p == want.p
        assert got.squares == want.squares
        assert got.attached == want.attached
    assert new.residual == old.residual
    assert new.presentation == old.presentation
    assert new.left == old.left and new.right == old.right
    assert print_soa(new) == print_soa(old)


def rerun(r):
    return naive.factorize(r.f, r.kind, cap=r.cap, mode=r.mode,
                           budget=r.budget)


def test_acceptance_runs_match_the_oracle():
    for r in _factorization_corpus():
        old = rerun(r)
        assert_same_run(r, old)
        issues = naive.verify_factorization(old).issues
        assert verify_factorization(r).issues == issues
        assert naive.verify_factorization(r).issues == issues


@st.composite
def runs(draw):
    """A map between tiny objects and run settings whose work stays small:
    J cap 2 with budget 2 already leaves thousands of squares."""
    a = draw(st.sampled_from(TINY_POOL), label="a")
    x = draw(st.sampled_from(TINY_POOL), label="x")
    maps = enumerate_maps(a, x)
    if not maps:
        a = empty_sset()
        maps = enumerate_maps(a, x)
    f = maps[draw(st.integers(0, len(maps) - 1), label="f")]
    mode = draw(st.sampled_from(["reduced", "faithful"]), label="mode")
    if mode == "faithful":
        kind, cap, budget = draw(st.sampled_from(["I", "J"])), 1, \
            draw(st.integers(0, 2))
    else:
        kind, cap = draw(st.sampled_from([("I", 1), ("I", 2), ("J", 1),
                                          ("J", 2)]))
        budget = draw(st.integers(0, 1 if (kind, cap) == ("J", 2) else 3))
    return f, kind, cap, mode, budget


@settings(max_examples=40, deadline=None)
@given(runs())
def test_drawn_runs_match_the_oracle(run):
    f, kind, cap, mode, budget = run
    new = factorize(f, kind, cap=cap, mode=mode, budget=budget)
    old = naive.factorize(f, kind, cap=cap, mode=mode, budget=budget)
    assert_same_run(new, old)
    assert verify_factorization(new).issues == \
        naive.verify_factorization(old).issues


def multi_round_runs():
    point = simplex(0)
    c = circle()
    return [
        factorize(enumerate_maps(c, point)[0], "I", cap=3, budget=3),
        factorize(enumerate_maps(simplex(1), c)[1], "J", cap=1, budget=3),
        factorize(enumerate_maps(boundary(1), point)[0], "J", cap=1,
                  budget=3),
        factorize(SimplicialMap(point, simplex(1), {"0": SimplexRef("0")}),
                  "J", cap=1, budget=3),
        factorize(SimplicialMap(empty_sset(), point, {}), "I", cap=2),
        factorize(identity(point), "I", cap=0, mode="faithful", budget=2),
    ]


class TestWitnesses:
    def test_every_witness_is_a_diagonal(self):
        for r in multi_round_runs():
            last = len(r.stages) - 1
            for k, stage in enumerate(r.stages):
                assert len(stage.witnesses) == len(stage.squares)
                for (_, sq), w in zip(stage.squares, stage.witnesses):
                    if k == last:
                        assert (w is None) == \
                            (not isinstance(solve_lift(sq), Lift))
                        assert w is None or verify_lift(sq, w)
                        continue
                    inc = r.realization.stage_data[k].inclusion
                    through = LiftingProblem(sq.left, r.stages[k + 1].p,
                                             compose(inc, sq.top), sq.bottom)
                    assert verify_lift(through, w)

    def test_attached_squares_are_witnessed_by_their_cells(self):
        for r in multi_round_runs():
            for k, stage in enumerate(r.stages[:-1]):
                chars = r.realization.stage_data[k].char_maps
                assert [stage.witnesses[idx] for idx in stage.attached] == \
                    chars

    def test_a_stage_without_witnesses_is_searched(self):
        r = multi_round_runs()[0]
        bare = [FactorStage(s.p, s.squares, s.attached)
                for s in r.stages]
        assert all(w is None for s in bare for w in s.witnesses)
        assert verify_factorization(mutated(r, stages=bare)).ok

    def test_one_witness_per_square(self):
        stage = multi_round_runs()[0].stages[0]
        assert stage.w == stage.p.source
        with pytest.raises(ValueError, match="one witness per square"):
            FactorStage(stage.p, stage.squares, stage.attached,
                        stage.witnesses[1:])


def counting(monkeypatch, module):
    calls = []
    real = module.solve_lift

    def counted(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(module, "solve_lift", counted)
    return calls


class TestFewerSearches:
    def test_only_squares_with_a_new_top_are_searched(self, monkeypatch):
        f = enumerate_maps(circle(), simplex(0))[0]
        calls = counting(monkeypatch, factorization)
        r = factorize(f, "I", cap=3, budget=3)
        assert r.stages_run == 3
        fresh = len(r.stages[0].squares) + sum(
            1 for k in range(1, len(r.stages))
            for _, sq in r.stages[k].squares
            if not all(r.stages[k - 1].w.has(ref.base)
                       for ref in sq.top.images.values()))
        assert len(calls) == fresh
        old_calls = counting(monkeypatch, naive)
        naive.factorize(f, "I", cap=3, budget=3)
        assert len(calls) < len(old_calls)

    def test_the_verifier_searches_only_unwitnessed_final_squares(
            self, monkeypatch):
        searched = skipped = 0
        for r in multi_round_runs() + [residual_run()]:
            calls = counting(monkeypatch, factorization)
            assert verify_factorization(r).ok
            final = [sq for label, gen in generator_family(r.kind, r.cap)
                     for sq in enumerate_squares(gen, r.right)]
            last = r.stages[-1]
            assert [sq for _, sq in last.squares] == final
            unwitnessed = [sq for sq, w in zip(final, last.witnesses)
                           if w is None]
            assert calls == unwitnessed
            searched += len(unwitnessed)
            skipped += len(final) - len(unwitnessed)
        assert searched and skipped


def mutated(r, **fields):
    args = dict(f=r.f, kind=r.kind, cap=r.cap, mode=r.mode, budget=r.budget,
                left=r.left, right=r.right, realization=r.realization,
                stages=r.stages, residual=r.residual, converged=r.converged)
    args.update(fields)
    return FactorizationResult(**args)


def circle_run():
    """Three rounds: 14 squares and 5 cells, 74 squares and 45 cells, then
    74 squares that all lift."""
    return factorize(enumerate_maps(circle(), simplex(0))[0], "I", cap=3,
                     budget=3)


def residual_run():
    """Two rounds that leave 39 squares unlifted."""
    return factorize(enumerate_maps(circle(), simplex(0))[0], "J", cap=2,
                     budget=1)


def swapped(stage):
    """Two squares of one generator whose witnesses differ, and the stage
    with those witnesses swapped: neither is a lift of the other square."""
    by_label = {}
    for idx, (label, _) in enumerate(stage.squares):
        by_label.setdefault(label, []).append(idx)
    i, j = next(idxs[:2] for idxs in by_label.values()
                if len(idxs) > 1
                and stage.witnesses[idxs[0]] != stage.witnesses[idxs[1]])
    witnesses = list(stage.witnesses)
    witnesses[i], witnesses[j] = witnesses[j], witnesses[i]
    return i, j, FactorStage(stage.p, stage.squares, stage.attached,
                             witnesses)


class TestMutations:
    def test_wrong_witness(self):
        r = circle_run()
        i, j, stage = swapped(r.stages[0])
        report = verify_factorization(
            mutated(r, stages=[stage] + r.stages[1:]))
        assert report.issues == [
            f"stage 0: square #{idx} has a witness that is not a lift "
            "through the next stage" for idx in (i, j)]

    def test_wrong_final_witness(self):
        r = circle_run()
        i, j, stage = swapped(r.stages[-1])
        report = verify_factorization(
            mutated(r, stages=r.stages[:-1] + [stage]))
        assert report.issues == [
            f"final stage: square #{idx} has a witness that is not a lift"
            for idx in (i, j)]

    def test_dropped_cell(self):
        r = circle_run()
        k = len(r.stages) - 2
        stage = r.stages[k]
        dropped = stage.attached[0]
        # rebuild the last attachment round without the first cell
        builder = PresentationBuilder(r.f.source)
        for attachments in r.presentation.stages[:-1]:
            for att in attachments:
                builder.attach(att.kind, att.n, att.k, att.attaching)
            builder.close_stage()
        kept = stage.attached[1:]
        for att in r.presentation.stages[-1][1:]:
            builder.attach(att.kind, att.n, att.k, att.attaching)
        closed = builder.close_stage()
        right = closed.induced([stage.squares[idx][1].bottom
                                for idx in kept], stage.p)
        realization = builder.realized()
        squares = [(label, sq) for label, gen in generator_family("I", 3)
                   for sq in enumerate_squares(gen, right)]
        final = FactorStage(right, squares, [])
        bad = mutated(r, left=realization.composite(), right=right,
                      realization=realization,
                      stages=r.stages[:-1] + [final], residual=[],
                      converged=True)
        issues = verify_factorization(bad).issues
        assert (f"stage {k}: square #{dropped} has a witness that is not a "
                "lift through the next stage") in issues
        assert (f"stage {k}: square #{dropped} does not lift through the "
                "next stage") in issues
        assert any(line.startswith("final stage:") for line in issues)
        assert "rlp: converged run's right factor fails check_rlp" in issues
        assert set(naive.verify_factorization(bad).issues) <= set(issues)

    def test_wrong_residual(self):
        r = residual_run()
        assert len(r.residual) > 1
        bad = mutated(r, residual=r.residual[1:])
        issues = verify_factorization(bad).issues
        assert issues == ["residual: recorded residual does not match "
                          "re-solve"]
        assert naive.verify_factorization(bad).issues == issues

    def test_final_square_that_no_longer_solves(self):
        r = residual_run()
        assert r.residual
        bad = mutated(r, residual=[], converged=True)
        issues = verify_factorization(bad).issues
        assert issues == [
            "residual: recorded residual does not match re-solve",
            "rlp: converged run's right factor fails check_rlp"]
        assert naive.verify_factorization(bad).issues == issues


class TestSquareChecks:
    def test_a_corrupted_memoized_bottom_raises(self, monkeypatch):
        real = lifting.extensions
        # an unpinned search yields bottoms that close no square
        monkeypatch.setattr(lifting, "extensions",
                            lambda a, x, pins=None, over=None: real(a, x))
        with pytest.raises(ValueError, match="does not commute"):
            enumerate_squares(boundary_inclusion(1), identity(simplex(1)))

    def test_the_public_constructor_keeps_its_check(self):
        i, f = boundary_inclusion(1), identity(simplex(1))
        top = enumerate_maps(boundary(1), simplex(1))[1]
        for bottom in enumerate_maps(simplex(1), simplex(1)):
            if compose(bottom, i) != compose(f, top):
                with pytest.raises(ValueError, match="does not commute"):
                    LiftingProblem(i, f, top, bottom)

    def test_bottoms_are_shared_between_tops_with_one_image(self):
        # every top into the circle's one vertex and loop has the same
        # composite with the map to the point
        f = enumerate_maps(circle(), simplex(0))[0]
        i = boundary_inclusion(1)
        squares = enumerate_squares(i, f)
        assert len(squares) == len(enumerate_maps(boundary(1), circle()))
        assert len({sq.bottom for sq in squares}) == 1


# a map of the boundary of the 2-simplex onto the interval that breaks two
# face relations: 0 and 1 both go to 0, yet 01 goes to the edge 01
def non_simplicial():
    return SimplicialMap(boundary(2), simplex(1), {
        "0": SimplexRef("0"), "1": SimplexRef("0"), "2": SimplexRef("1"),
        "01": SimplexRef("01"), "02": SimplexRef("01"),
        "12": SimplexRef("1", (0,))})


class TestAttachingMaps:
    def test_close_stage_rejects_a_non_simplicial_map(self):
        builder = PresentationBuilder(simplex(1)).attach(
            "I", 2, attaching=non_simplicial())
        with pytest.raises(ValueError, match="not simplicial: face"):
            builder.close_stage()
        with pytest.raises(ValueError, match="not simplicial"):
            Attachment("I", 2, None, non_simplicial())

    def test_parse_then_realize_checks_each_map_once(self, monkeypatch):
        checked = []
        real = cells.map_errors
        monkeypatch.setattr(cells, "map_errors",
                            lambda f: checked.append(f) or real(f))
        text = (DATA / "horn_fill.cellpres").read_text()
        pres, _ = formats.parse_cellpres(text)
        assert len(checked) == pres.attachment_count() == 1
        realize(pres)
        formats.print_cellpres(pres)
        assert len(checked) == 1
