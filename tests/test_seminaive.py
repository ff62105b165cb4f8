"""Semi-naive factorization rounds and the witness-checked verifier against
the code they replaced (`naive_factorization`): the same stages, squares,
cells, residuals and reports, the same verification issues, fewer searches,
and every planted defect reported."""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_factorization as naive
from instances import SMALL_POOL, TINY_POOL, circle
from test_acceptance import _factorization_corpus
from test_search import right_maps
from ssetkit import cells, factorization, formats, lifting
from ssetkit.cells import (
    Attachment,
    PresentationBuilder,
    realize,
)
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    _face_index,
    _positional,
    boundary,
    boundary_inclusion,
    compose,
    empty_sset,
    enumerate_maps,
    enumerate_simplices,
    horn,
    identity,
    map_errors,
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
    check_rlp,
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


def key(label, sq):
    return label, sq.top.img, sq.bottom.img


def assert_early_squares_are_the_last_rounds(r):
    """At every round k >= 1, the squares whose top lies in W_{k-1} are
    exactly the keys of round k-1's squares: what lets a lookup of the
    carried witness stand for a test of the top."""
    for prev, stage in zip(r.stages, r.stages[1:]):
        early = [key(label, sq) for label, sq in stage.squares
                 if all(prev.w.has(ref.base) for ref in sq.top.img)]
        keys = [key(label, sq) for label, sq in prev.squares]
        assert len(set(keys)) == len(keys) == len(early)
        assert set(early) == set(keys)


def rerun(r):
    return naive.factorize(r.f, r.kind, cap=r.cap, mode=r.mode,
                           budget=r.budget)


def test_acceptance_runs_match_the_oracle():
    for r in _factorization_corpus():
        old = rerun(r)
        assert_same_run(r, old)
        assert_early_squares_are_the_last_rounds(r)
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
    assert_early_squares_are_the_last_rounds(new)
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


def test_multi_round_runs_carry_exactly_the_last_rounds_squares():
    runs = multi_round_runs() + [circle_run(), residual_run()]
    assert sum(len(r.stages) - 1 for r in runs) >= 10
    for r in runs:
        assert_early_squares_are_the_last_rounds(r)


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
        calls = counting(monkeypatch, lifting)
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

    def test_faithful_rounds_before_the_last_search_nothing(
            self, monkeypatch):
        f = enumerate_maps(boundary(1), simplex(0))[0]
        calls = counting(monkeypatch, lifting)
        r = factorize(f, "I", cap=1, mode="faithful", budget=2)
        assert r.stages_run == 3 and r.residual
        searched = [sq for _, sq in r.stages[-1].squares
                    if not all(r.stages[-2].w.has(ref.base)
                               for ref in sq.top.img)]
        assert searched and calls == searched

    def test_the_verifier_searches_only_unwitnessed_final_squares(
            self, monkeypatch):
        searched = skipped = 0
        for r in multi_round_runs() + [residual_run()]:
            calls = counting(monkeypatch, lifting)
            pushed = counting(monkeypatch, factorization)
            assert verify_factorization(r).ok
            final = [sq for label, gen in generator_family(r.kind, r.cap)
                     for sq in enumerate_squares(gen, r.right)]
            last = r.stages[-1]
            assert [sq for _, sq in last.squares] == final
            unwitnessed = [sq for sq, w in zip(final, last.witnesses)
                           if w is None]
            assert calls == unwitnessed and pushed == []
            searched += len(unwitnessed)
            skipped += len(final) - len(unwitnessed)
        assert searched and skipped


class TestSquareStream:
    """`check_rlp` against the copy of the earlier code in
    `naive_factorization`, and its witness hook."""

    @pytest.mark.parametrize("kind,cap", [(kind, cap) for kind in "IJ"
                                          for cap in range(3)])
    def test_reports_match_the_oracle(self, kind, cap):
        for f in right_maps():
            got, want = check_rlp(f, kind, cap), naive.check_rlp(f, kind, cap)
            assert got.passed == want.passed
            assert got.lines() == want.lines()

    def test_right_factors_match_the_oracle(self):
        for r in _factorization_corpus():
            for kind in "IJ":
                got = check_rlp(r.right, kind, r.cap)
                want = naive.check_rlp(r.right, kind, r.cap)
                assert got.passed == want.passed
                assert got.lines() == want.lines()

    def test_entries_hold_the_least_lift_or_none(self):
        report = check_rlp(enumerate_maps(circle(), simplex(0))[0], "I", 2)
        assert {d is None for _, _, d in report.entries} == {True, False}
        for _, sq, d in report.entries:
            found = solve_lift(sq)
            assert d == (found.diagonal if isinstance(found, Lift) else None)

    def test_the_hook_keeps_a_diagonal_and_leaves_false_undecided(
            self, monkeypatch):
        f = enumerate_maps(boundary(1), simplex(0))[0]
        searched = check_rlp(f, "I", 1).entries
        calls = counting(monkeypatch, lifting)
        kept = check_rlp(f, "I", 1, lambda label, sq: searched[0][2])
        assert calls == []
        assert [d for _, _, d in kept.entries] == [searched[0][2]] * len(
            searched)
        undecided = check_rlp(f, "I", 1, lambda label, sq: False)
        assert calls == [] and not undecided.passed
        assert all(d is False for _, _, d in undecided.entries)
        assert all(line.endswith(" unsolved") for line in undecided.lines())
        again = check_rlp(f, "I", 1, lambda label, sq: None)
        assert len(calls) == len(searched)
        assert again.lines() == check_rlp(f, "I", 1).lines()


def mutated(r, **fields):
    args = dict(f=r.f, kind=r.kind, cap=r.cap, mode=r.mode, budget=r.budget,
                left=r.left, right=r.right, presentation=r.presentation,
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


# Planted defects: each builder returns the mutated run and what its test
# needs to name the issues it must produce.  The corpus records each
# mutated run's issues as well.

def wrong_witness():
    r = circle_run()
    i, j, stage = swapped(r.stages[0])
    return mutated(r, stages=[stage] + r.stages[1:]), (i, j)


def wrong_final_witness():
    r = circle_run()
    i, j, stage = swapped(r.stages[-1])
    return mutated(r, stages=r.stages[:-1] + [stage]), (i, j)


def dropped_cell():
    """The last attachment round rebuilt without its first cell.  Returns
    the stage k of that round, the dropped square's index there and the
    index of the final square with the same key."""
    r = circle_run()
    k = len(r.stages) - 2
    stage = r.stages[k]
    dropped = stage.attached[0]
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
    presentation = builder.presentation()
    squares = [(label, sq) for label, gen in generator_family("I", 3)
               for sq in enumerate_squares(gen, right)]
    at = [key(*square) for square in squares].index(
        key(*stage.squares[dropped]))
    final = FactorStage(right, squares, [])
    bad = mutated(r, left=presentation.realization.composite(), right=right,
                  presentation=presentation,
                  stages=r.stages[:-1] + [final], residual=[],
                  converged=True)
    return bad, (k, dropped, at)


def wrong_residual():
    r = residual_run()
    assert len(r.residual) > 1
    return mutated(r, residual=r.residual[1:]), ()


def final_square_that_no_longer_solves():
    r = residual_run()
    assert r.residual
    return mutated(r, residual=[], converged=True), ()


def wrong_projection():
    """Stage 1 gets a projection that is not the run's, so some squares of
    stage 0 no longer commute once pushed into stage 1.  Returns those
    squares' indices."""
    f = enumerate_maps(boundary(1), simplex(1))[0]
    r = factorize(f, "I", cap=1, mode="reduced", budget=3)
    assert len(r.stages) == 3 and verify_factorization(r).ok
    s = r.stages[1]
    wrong = enumerate_maps(s.p.source, s.p.target)[1]
    assert wrong != s.p
    stage = FactorStage(wrong, s.squares, s.attached, s.witnesses)
    bad = mutated(r, stages=[r.stages[0], stage, r.stages[2]])
    inc = r.realization.stage_data[0].inclusion
    broken = [idx for idx, (_, sq) in enumerate(r.stages[0].squares)
              if compose(wrong, compose(inc, sq.top))
              != compose(sq.bottom, sq.left)]
    assert broken
    return bad, broken


MUTATIONS = [wrong_witness, wrong_final_witness, dropped_cell,
             wrong_residual, final_square_that_no_longer_solves,
             wrong_projection]


class TestMutations:
    def test_wrong_witness(self):
        bad, (i, j) = wrong_witness()
        assert verify_factorization(bad).issues == [
            f"stage 0: square #{idx} has a witness that is not a lift "
            "through the next stage" for idx in (i, j)]

    def test_wrong_final_witness(self):
        bad, (i, j) = wrong_final_witness()
        assert verify_factorization(bad).issues == [
            f"final stage: square #{idx} has a witness that is not a lift"
            for idx in (i, j)]

    def test_dropped_cell(self):
        bad, (k, dropped, at) = dropped_cell()
        issues = verify_factorization(bad).issues
        assert (f"stage {k}: square #{dropped} has a witness that is not a "
                "lift through the next stage") in issues
        assert (f"stage {k}: square #{dropped} does not lift through the "
                "next stage") in issues
        assert [line for line in issues if line.startswith("final stage:")] \
            == [f"final stage: square #{at} has an early-born top but no "
                "lift"]
        assert "rlp: converged run's right factor fails check_rlp" in issues
        assert set(naive.verify_factorization(bad).issues) <= set(issues)

    def test_wrong_residual(self):
        bad, _ = wrong_residual()
        issues = verify_factorization(bad).issues
        assert issues == ["residual: recorded residual does not match "
                          "re-solve"]
        assert naive.verify_factorization(bad).issues == issues

    def test_final_square_that_no_longer_solves(self):
        bad, _ = final_square_that_no_longer_solves()
        issues = verify_factorization(bad).issues
        assert issues == [
            "residual: recorded residual does not match re-solve",
            "rlp: converged run's right factor fails check_rlp"]
        assert naive.verify_factorization(bad).issues == issues

    def test_wrong_projection(self):
        # the broken squares have no lift and are reported, not raised
        bad, broken = wrong_projection()
        issues = verify_factorization(bad).issues
        lifts = [line for line in issues if "does not lift" in line]
        assert lifts == [f"stage 0: square #{idx} does not lift through the "
                         "next stage" for idx in broken]
        assert all("has a witness that is not a lift" in line
                   for line in issues if line not in lifts)


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


# ---------------------------------------------------------------------------
# What the stage inclusion carries: tops and witnesses pushed by name, a
# top's bottoms kept for the run, each witness verified once.  `compose`,
# `enumerate_squares` without a table and `verify_lift` on every witness
# are the oracles.

def carrying_runs():
    return multi_round_runs() + [circle_run(), residual_run()]


class TestPushByName:
    def test_push_is_the_composite_on_every_stage(self):
        pushed = 0
        for r in _factorization_corpus() + carrying_runs():
            for k, closed in enumerate(r.realization.stage_data):
                # maps into W_k: its identity, the tops of round k and the
                # witnesses of round k - 1
                maps = [identity(r.stages[k].w)]
                maps += [sq.top for _, sq in r.stages[k].squares]
                if k:
                    maps += [w for w in r.stages[k - 1].witnesses if w]
                for m in maps:
                    assert closed._push(m) == compose(closed.inclusion, m)
                pushed += len(maps)
        assert pushed > 500


def verified(monkeypatch):
    """The squares and witnesses the verifier hands to `verify_lift`."""
    calls = []
    real = factorization.verify_lift

    def counted(problem, diagonal):
        calls.append((problem, diagonal))
        return real(problem, diagonal)

    monkeypatch.setattr(factorization, "verify_lift", counted)
    return calls


class TestCarriedBottoms:
    def test_squares_with_the_table_are_the_squares_without(self):
        for r in carrying_runs():
            tables = {}
            for stage in r.stages:
                family = generator_family(r.kind, r.cap)
                got = [(label, sq) for label, gen in family
                       for sq in enumerate_squares(
                           gen, stage.p, tables.setdefault(label, {}))]
                want = [(label, sq) for label, gen in family
                        for sq in enumerate_squares(gen, stage.p)]
                assert got == want == stage.squares

    def test_only_tops_not_seen_before_are_composed_and_searched(
            self, monkeypatch):
        r = circle_run()
        real_compose, real_extensions = lifting.compose, lifting.extensions
        composed, searched = [], []
        monkeypatch.setattr(lifting, "compose", lambda g, f: (
            composed.append(f), real_compose(g, f))[1])
        monkeypatch.setattr(
            lifting, "extensions", lambda a, x, pins=None, over=None: (
                searched.append(pins), real_extensions(a, x, pins, over))[1])
        tables, seen, skipped = {}, {}, 0
        for stage in r.stages:
            for label, gen in generator_family(r.kind, r.cap):
                tops = enumerate_maps(gen.source, stage.w)
                old = seen.setdefault(label, set())
                new = [top for top in tops if top.img not in old]
                composed.clear()
                searched.clear()
                enumerate_squares(gen, stage.p, tables.setdefault(label, {}))
                assert composed == new
                # one search per distinct f . top among the new tops
                assert len(searched) == len(
                    {real_compose(stage.p, top).img for top in new})
                skipped += len(tops) - len(new)
                old.update(top.img for top in tops)
        assert skipped > 0

    def test_the_verifier_never_reads_the_producers_table(self, monkeypatch):
        tables = []
        real = lifting.enumerate_squares

        def spy(i, f, carried=None):
            tables.append(carried)
            return real(i, f, carried)

        monkeypatch.setattr(lifting, "enumerate_squares", spy)
        r = circle_run()
        assert tables and all(t is not None for t in tables)
        tables.clear()
        assert verify_factorization(r).ok
        assert tables and all(t is None for t in tables)


def witness_keys(r):
    return {(sq.left, sq.top.img, sq.bottom.img, w.img)
            for stage in r.stages
            for (_, sq), w in zip(stage.squares, stage.witnesses)
            if w is not None}


def witness_count(r):
    return sum(w is not None for stage in r.stages for w in stage.witnesses)


def bottom_elsewhere():
    """A square of stage 1 whose key stage 0 verified, its bottom now into
    an object with one more vertex: same images, so only the endpoint check
    tells it apart."""
    r = circle_run()
    keys = {key(label, sq) for label, sq in r.stages[0].squares}
    s = r.stages[1]
    j = next(idx for idx, (label, sq) in enumerate(s.squares)
             if key(label, sq) in keys)
    label, sq = s.squares[j]
    wider = FiniteSimplicialSet({0: ["0", "1"]})
    squares = list(s.squares)
    squares[j] = label, lifting._commuting(sq.left, sq.right, sq.top,
                                           _positional(sq.bottom.source,
                                                       wider, sq.bottom.img))
    stage = FactorStage(s.p, squares, s.attached, s.witnesses)
    bad = mutated(r, stages=[r.stages[0], stage, *r.stages[2:]])
    assert verify_factorization(bad).issues == [
        f"stage 1: square #{j} has a witness that is not a lift through the "
        "next stage"]
    return bad, j


class TestEachWitnessOnce:
    def test_verify_lift_runs_once_per_distinct_key(self, monkeypatch):
        saved = 0
        for r in carrying_runs():
            calls = verified(monkeypatch)
            assert verify_factorization(r).ok
            assert len(calls) == len(witness_keys(r))
            saved += witness_count(r) - len(calls)
        assert saved > 0

    def test_a_wrong_projection_verifies_every_witness(self, monkeypatch):
        bad, broken = wrong_projection()
        assert not factorization._stable(bad)
        calls = verified(monkeypatch)
        issues = verify_factorization(bad).issues
        assert len(calls) == witness_count(bad) > len(witness_keys(bad))
        assert [line for line in issues if "does not lift" in line] == [
            f"stage 0: square #{idx} does not lift through the next stage"
            for idx in broken]

    @pytest.mark.parametrize("build", MUTATIONS + [bottom_elsewhere],
                             ids=[m.__name__ for m in MUTATIONS]
                             + ["bottom_elsewhere"])
    def test_issues_match_verifying_every_witness(self, monkeypatch, build):
        bad, _ = build()
        issues = verify_factorization(bad).issues
        assert issues
        monkeypatch.setattr(factorization, "_stable", lambda result: False)
        assert verify_factorization(bad).issues == issues

    def test_every_stage_of_a_run_is_stable(self):
        for r in carrying_runs():
            assert len(r.stages) == 1 or factorization._stable(r)

    def test_a_single_stage_run_skips_the_stage_check(self, monkeypatch):
        r = factorize(identity(simplex(0)), "I", cap=2)
        assert len(r.stages) == 1
        checked = []
        monkeypatch.setattr(factorization, "_stable",
                            lambda result: checked.append(result))
        assert verify_factorization(r).ok and checked == []

    def test_results_that_do_not_fit_are_unstable(self):
        r = circle_run()
        rz = r.realization
        inc = rz.stage_data[0].inclusion
        # the circle's loop sent to the degenerate edge on its vertex
        collapsed = cells.StageData(rz.stage_data[0].char_maps, _positional(
            inc.source, inc.target, (inc.img[0], SimplexRef(
                inc.img[0].base, (0,)))))
        presentation = cells.CellPresentation(r.presentation.base,
                                              r.presentation.stages)
        presentation.__dict__["realization"] = cells.RealizeResult(
            rz, [collapsed, *rz.stage_data[1:]])
        point = identity(simplex(0))
        for bad in [
                mutated(r, right=identity(r.right.source)),
                mutated(r, stages=[r.stages[0], FactorStage(point, [], []),
                                   *r.stages[2:]]),
                mutated(r, stages=[*r.stages, r.stages[-1]]),
                mutated(r, presentation=presentation)]:
            assert factorization._stable(bad) is False


def without_index(x):
    """An object equal to x whose memo holds no face index."""
    return FiniteSimplicialSet({d: x.simplices(d) for d in range(x.dim + 1)},
                               {n: x.faces_of(n) for n in x.names()
                                if x.dim_of(n)})


def with_index(x):
    y = without_index(x)
    for d in range(1, y.dim + 1):
        _face_index(y, d)
    return y


def variants(f):
    """f's image tuple, and each tuple with one image replaced by another
    simplex of the target, by None, by a name the target lacks, or by a
    word that is not in normal form: most are not simplicial."""
    x = f.target
    out = [f.img]
    for t, ref in enumerate(f.img):
        d = f.source.dim_of(list(f.source.names())[t])
        others = list(enumerate_simplices(x, d)) + [
            None, SimplexRef("nowhere"), SimplexRef(ref.base, (0, 0))]
        out += [f.img[:t] + (other,) + f.img[t + 1:] for other in others
                if other != ref]
    return out


class TestAttachingMapsInTheFaceIndex:
    def test_issues_are_the_same_with_and_without_the_index(self):
        compared = faulty = 0
        cases = [(a, x, f.img) for a in SMALL_POOL for x in SMALL_POOL
                 for f in enumerate_maps(a, x)[:2]]
        bad = non_simplicial()
        cases.append((bad.source, bad.target, bad.img))
        for a, x, img in cases:
            plain, indexed = without_index(x), with_index(x)
            for images in variants(_positional(a, x, img)):
                want = map_errors(_positional(a, plain, images))
                assert map_errors(_positional(a, indexed, images)) == want
                compared += 1
                faulty += bool(want)
            assert not any(key[0] == "faces" for key in plain._memo)
        assert compared > 1000 and faulty > 500

    def test_a_map_into_an_indexed_target_reads_no_face(self, monkeypatch):
        x = with_index(boundary(2))
        maps = [_positional(f.source, x, f.img)
                for f in enumerate_maps(horn(2, 1), boundary(2))]
        assert maps
        reads = []
        real = FiniteSimplicialSet.face
        monkeypatch.setattr(FiniteSimplicialSet, "face",
                            lambda s, ref, i: reads.append(i) or real(
                                s, ref, i))
        assert all(map_errors(f) == [] for f in maps)
        assert reads == []
        assert map_errors(non_simplicial()) and reads
