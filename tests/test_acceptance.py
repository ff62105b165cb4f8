"""Acceptance suite: one test per criterion, each printing its own
pass line (run with `pytest tests/test_acceptance.py -s` to see them).

Every randomized loop uses a fixed seed; counts meet or exceed the stated
instance minimums, and every check is exact (no tolerances anywhere: the
objects are finite and the arithmetic is integer)."""

import pathlib
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
    horn,
    horn_inclusion,
    identity,
    simplex,
)
from ssetkit.colimits import pushout
from ssetkit.cells import (
    PresentationBuilder,
    factor_through_stage,
    j_to_i_presentation,
    realize,
)
from ssetkit.lifting import (
    Lift,
    LiftTransferError,
    LiftingProblem,
    NoLift,
    check_rlp,
    lift_via_composition,
    lift_via_coproduct,
    lift_via_pushout,
    lift_via_retract,
    retract_argument,
    solve_lift,
    verify_lift,
)
from ssetkit.factorization import (
    factorize,
    induced_factorization_map,
    verify_factorization,
)
from ssetkit.homology import weak_equivalence_certificate

from instances import (
    NONEMPTY_POOL,
    SMALL_POOL,
    TINY_POOL,
    circle,
    path_two_edges,
    pick_map,
    pick_pair,
    random_j_presentation,
    random_presentation,
    retract_instance,
    two_points,
)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def announce(number, slug, detail):
    print(f"ACCEPTANCE {number} {slug}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Lifting-closure suite: each transfer operation returns a verified lift
#    whenever its premise lift exists; >= 1000 instances per lemma.

class TestCriterion1LiftingClosure:
    def test_retracts(self):
        rng = random.Random(101)
        count = 0
        for _ in range(2000):
            if count >= 1000:
                break
            i = pick_pair(rng, TINY_POOL, TINY_POOL)
            diagram = retract_instance(rng, i)
            w = pick_map(rng, i.target, rng.choice(TINY_POOL))
            if w is None:
                continue
            f = pick_map(rng, w.target, rng.choice(TINY_POOL))
            if f is None:
                continue
            problem = LiftingProblem(i, f, compose(w, i), compose(f, w))
            out = lift_via_retract(diagram, problem)
            assert verify_lift(problem, out.diagonal)
            count += 1
        assert count >= 1000
        announce(1, "lift-via-retract", f"{count} instances, 0 failures")

    def test_pushouts(self):
        rng = random.Random(102)
        count = 0
        for _ in range(2500):
            if count >= 1000:
                break
            i = pick_pair(rng, TINY_POOL, TINY_POOL)
            g = pick_map(rng, i.source, rng.choice(TINY_POOL))
            if g is None:
                continue
            p = pushout(i, g)
            cocone = pick_map(rng, p.corner, rng.choice(TINY_POOL))
            if cocone is None:
                continue
            f = pick_map(rng, cocone.target, rng.choice(TINY_POOL))
            if f is None:
                continue
            square = LiftingProblem(p.leg_from_c, f,
                                    compose(cocone, p.leg_from_c),
                                    compose(f, cocone))
            w = compose(cocone, p.leg_from_b)
            out = lift_via_pushout(p, square, w)
            assert verify_lift(square, out.diagonal)
            count += 1
        assert count >= 1000
        announce(1, "lift-via-pushout", f"{count} instances, 0 failures")

    def test_coproducts(self):
        rng = random.Random(103)
        count = 0
        for _ in range(2000):
            if count >= 1000:
                break
            x = rng.choice(TINY_POOL)
            y = rng.choice(TINY_POOL)
            f = pick_map(rng, x, y)
            if f is None:
                continue
            problems, lifts = [], []
            for _ in range(rng.randint(1, 3)):
                i = pick_pair(rng, TINY_POOL, TINY_POOL)
                w = pick_map(rng, i.target, x)
                if w is None:
                    break
                problems.append(LiftingProblem(i, f, compose(w, i),
                                               compose(f, w)))
                if rng.random() < 0.5:
                    lifts.append(Lift(w))
                else:
                    found = solve_lift(problems[-1])
                    assert isinstance(found, Lift)
                    lifts.append(found)
            else:
                assembled, out = lift_via_coproduct(problems, lifts)
                assert verify_lift(assembled, out.diagonal)
                count += 1
        assert count >= 1000
        announce(1, "lift-via-coproduct", f"{count} instances, 0 failures")

    def test_compositions(self):
        rng = random.Random(104)
        count = 0
        skipped = 0
        for trial in range(1600):
            if count >= 1000:
                break
            base = rng.choice(NONEMPTY_POOL[:6])
            builder = random_presentation(rng, base, 3, 4, max_dim=2)
            record = builder.realized()
            comp = record.composite()
            x = rng.choice(TINY_POOL)
            u = pick_map(rng, record.final, x)
            if u is None:
                continue
            if trial % 10 < 7:
                problem = LiftingProblem(comp, identity(x),
                                         compose(u, comp), u)
            else:
                f = pick_map(rng, x, rng.choice(TINY_POOL))
                if f is None:
                    continue
                problem = LiftingProblem(comp, f, compose(u, comp),
                                         compose(f, u))
            try:
                out = lift_via_composition(record, problem)
            except LiftTransferError:
                skipped += 1  # some stage had no lift: premise absent
                continue
            assert verify_lift(problem, out.diagonal)
            count += 1
        assert count >= 1000
        announce(1, "lift-via-composition",
                 f"{count} instances, 0 failures, {skipped} without premise")


# ---------------------------------------------------------------------------
# 2. Retract argument on factorizations certified by their own right factor.

class TestCriterion2RetractArgument:
    def test_retract_argument_on_j_factorizations(self):
        # 2-horn cells send reduced runs past any desk budget (fibrant
        # completion blows up), so the corpus realizes 1-horn cells; the
        # canonical-square lift is then guaranteed at cap 2 and solve_lift
        # must find it.
        rng = random.Random(201)
        bases = [simplex(0), simplex(1), two_points(), circle(),
                 path_two_edges(), horn(2, 1)]
        count = 0
        for _ in range(220):
            if count >= 100:
                break
            base = rng.choice(bases)
            builder = random_j_presentation(rng, base, max_stages=2,
                                            max_cells=3, max_dim=1)
            f = builder.realized().composite()
            run = factorize(f, "J", cap=2, mode="reduced", budget=4)
            if not run.converged:
                continue
            assert check_rlp(run.right, "J", run.cap).passed
            square = LiftingProblem(f, run.right, run.left,
                                    identity(f.target))
            found = solve_lift(square)
            assert isinstance(found, Lift), "canonical square must lift"
            diagram = retract_argument(f, run.left, run.right, found)
            # constructor has checked the diagram; re-derive a lift from it
            rederived = lift_via_retract(diagram, square)
            assert verify_lift(square, rederived.diagonal)
            count += 1
        assert count >= 100
        announce(2, "retract-argument", f"{count} instances, 0 failures")


# ---------------------------------------------------------------------------
# 3. Smallness: maps from finite objects factor through the minimal stage.

class TestCriterion3Smallness:
    def test_factor_through_stage_minimality(self):
        rng = random.Random(301)
        count = 0
        while count < 500:
            base = rng.choice(SMALL_POOL)
            builder = random_presentation(rng, base, 4, 10, max_dim=2)
            res = builder.realized()
            k_obj = rng.choice(SMALL_POOL)
            m = pick_map(rng, k_obj, res.final)
            if m is None:
                continue
            k, factored = factor_through_stage(res, m)
            assert compose(res.composite_from(k), factored) == m
            if k > 0:
                prev = res.composite_from(k - 1)
                reachable = {prev.images[n].base
                             for n in res.objects[k - 1].names()}
                assert any(m.images[n].base not in reachable
                           for n in m.source.names()), \
                    "k-1 stages would have sufficed"
            count += 1
        announce(3, "smallness", f"{count} presentations, minimal k exact")


# ---------------------------------------------------------------------------
# 4. Small object argument: the pinned run, full verification of converged
#    runs, and the stage-solvability invariant on every run.

def _factorization_corpus():
    runs = [
        factorize(SimplicialMap(empty_sset(), simplex(0), {}), "I",
                  cap=2, mode="reduced", budget=5),
        factorize(SimplicialMap(empty_sset(), simplex(0), {}), "J",
                  cap=2, mode="reduced", budget=5),
        factorize(enumerate_maps(boundary(1), simplex(0))[0], "I",
                  cap=2, mode="reduced", budget=5),
        factorize(enumerate_maps(boundary(1), simplex(0))[0], "J",
                  cap=2, mode="reduced", budget=5),
        factorize(enumerate_maps(simplex(1), simplex(0))[0], "I",
                  cap=2, mode="reduced", budget=5),
        factorize(boundary_inclusion(2), "I", cap=2, mode="reduced",
                  budget=5),
        factorize(horn_inclusion(2, 1), "J", cap=1, mode="reduced",
                  budget=3),
        factorize(identity(simplex(1)), "I", cap=2, mode="reduced",
                  budget=5),
        # budget-capped and faithful runs
        factorize(enumerate_maps(boundary(1), simplex(0))[0], "I",
                  cap=2, mode="reduced", budget=0),
        factorize(enumerate_maps(boundary(1), simplex(0))[0], "I",
                  cap=1, mode="reduced", budget=1),
        factorize(identity(simplex(0)), "I", cap=0, mode="faithful",
                  budget=1),
        factorize(SimplicialMap(empty_sset(), two_points(), {}), "I",
                  cap=0, mode="faithful", budget=2),
    ]
    rng = random.Random(401)
    for _ in range(12):
        f = pick_pair(rng, TINY_POOL, TINY_POOL)
        kind = rng.choice(["I", "J"])
        runs.append(factorize(f, kind, cap=rng.randint(1, 2),
                              mode="reduced", budget=rng.randint(0, 4)))
    return runs


class TestCriterion4SmallObject:
    def test_a_pinned_run(self):
        run = factorize(SimplicialMap(empty_sset(), simplex(0), {}), "I",
                        cap=2, mode="reduced", budget=5)
        assert run.converged
        assert run.stages_run == 2
        assert run.middle.size() == 1
        announce(4, "soa-pinned-run",
                 "(empty -> point, I, cap 2) converges in 2 stages to one "
                 "simplex")

    def test_b_converged_runs_verify(self):
        runs = _factorization_corpus()
        converged = [r for r in runs if r.converged]
        assert converged
        for r in converged:
            report = verify_factorization(r)
            assert report.ok, str(report)
            assert check_rlp(r.right, r.kind, r.cap).passed
        announce(4, "soa-verification",
                 f"{len(converged)} converged runs fully verified "
                 f"(incl. check_rlp at cap)")

    def test_c_stage_solvability_every_run(self):
        runs = _factorization_corpus()
        capped = sum(1 for r in runs if not r.converged)
        for r in runs:
            report = verify_factorization(r)
            assert report.ok, str(report)
            assert compose(r.right, r.left) == r.f
        announce(4, "soa-stage-solvability",
                 f"{len(runs)} runs ({capped} budget-capped) verified, every "
                 f"stage-k square lifts through stage k+1")


# ---------------------------------------------------------------------------
# 5. Functoriality of the faithful construction.

def _discrete(n, tag):
    return FiniteSimplicialSet({0: [f"{tag}{i}" for i in range(n)]}, {})


class TestCriterion5Functoriality:
    def test_identity_squares_induce_identities(self):
        rng = random.Random(501)
        targets = [simplex(0), two_points(), _discrete(3, "t"), simplex(1),
                   boundary(1)]
        sources = [empty_sset(), simplex(0), two_points(), boundary(1)]
        instances = 0
        for a in sources:
            for b in targets:
                for f in enumerate_maps(a, b):
                    if instances >= 26:
                        break
                    r = factorize(f, "I", cap=0, mode="faithful", budget=2)
                    maps = induced_factorization_map(
                        identity(a), identity(b), r, r)
                    for k, h in enumerate(maps):
                        assert h == identity(r.stages[min(k, len(r.stages) - 1)].w)
                    instances += 1
        assert instances >= 26
        self.identity_count = instances
        announce(5, "functoriality-identity",
                 f"{instances} faithful 2-stage runs, identity squares give "
                 f"identity maps")

    def test_composite_squares_compose(self):
        objs = [simplex(0), two_points(), _discrete(3, "t")]
        e = empty_sset()
        checked = 0
        for x1 in objs:
            for x2 in objs:
                for x3 in objs:
                    for v1 in enumerate_maps(x1, x2)[:2]:
                        for v2 in enumerate_maps(x2, x3)[:2]:
                            if checked >= 25:
                                break
                            f1 = SimplicialMap(e, x1, {})
                            f2 = SimplicialMap(e, x2, {})
                            f3 = SimplicialMap(e, x3, {})
                            r1 = factorize(f1, "I", cap=0, mode="faithful",
                                           budget=2)
                            r2 = factorize(f2, "I", cap=0, mode="faithful",
                                           budget=2)
                            r3 = factorize(f3, "I", cap=0, mode="faithful",
                                           budget=2)
                            u = identity(e)
                            m12 = induced_factorization_map(u, v1, r1, r2)
                            m23 = induced_factorization_map(u, v2, r2, r3)
                            m13 = induced_factorization_map(
                                u, compose(v2, v1), r1, r3)
                            for h13, h12, h23 in zip(m13, m12, m23):
                                assert h13 == compose(h23, h12)
                            checked += 1
        assert checked >= 25
        announce(5, "functoriality-composition",
                 f"{checked} composable square pairs, stagewise composition "
                 f"exact")


# ---------------------------------------------------------------------------
# 6. Two-cell conversion of horn presentations.

class TestCriterion6TwoCellConversion:
    def test_conversion_doubles_and_realizes_isomorphically(self):
        rng = random.Random(601)
        count = 0
        while count < 200:
            base = rng.choice(NONEMPTY_POOL)
            builder = random_j_presentation(rng, base, max_stages=2,
                                            max_cells=3, max_dim=2)
            pres = builder.presentation()
            converted, iso = j_to_i_presentation(pres)
            assert converted.attachment_count() == 2 * pres.attachment_count()
            assert converted.kinds() <= {"I"}
            assert compose(iso, realize(pres).composite()) == \
                realize(converted).composite()
            count += 1
        announce(6, "two-cell-conversion",
                 f"{count} horn presentations, attachment count doubled, "
                 f"realizations isomorphic over the base")


# ---------------------------------------------------------------------------
# 7. Homological certificates for the two factorization flavors.

class TestCriterion7Certificates:
    def test_i_factorization_right_factor_certified(self):
        rng = random.Random(701)
        fixed = [
            SimplicialMap(empty_sset(), simplex(0), {}),
            SimplicialMap(empty_sset(), simplex(1), {}),
            SimplicialMap(empty_sset(), circle(), {}),
            identity(simplex(1)),
            boundary_inclusion(1),
            boundary_inclusion(2),
            horn_inclusion(2, 0),
            horn_inclusion(2, 1),
            SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")}),
            SimplicialMap(simplex(0), circle(), {"0": SimplexRef("v")}),
        ]
        for s in (simplex(1), simplex(2), boundary(1), two_points(),
                  path_two_edges(), boundary(2)):
            fixed.extend(enumerate_maps(s, simplex(0)))
        count = 0
        queue = list(fixed)
        while count < 100:
            f = queue.pop(0) if queue else pick_pair(rng, TINY_POOL, TINY_POOL)
            run = factorize(f, "I", cap=3, mode="reduced", budget=6)
            if not run.converged:
                continue
            cert = weak_equivalence_certificate(run.right, 3)
            assert cert.passed, (f.images, cert.failure)
            count += 1
        announce(7, "cert-i-right-factor",
                 f"{count} converged I-factorizations, right factor passes "
                 f"up to maxdim 3")

    def test_j_cell_inclusion_certified(self):
        rng = random.Random(702)
        count = 0
        while count < 100:
            base = rng.choice(NONEMPTY_POOL)
            n = rng.randint(1, 2)
            k = rng.randint(0, n)
            att = pick_map(rng, horn(n, k), base)
            if att is None:
                continue
            builder = PresentationBuilder(base)
            builder.attach("J", n, k, attaching=att)
            stage = builder.close_stage()
            cert = weak_equivalence_certificate(stage.inclusion, 3)
            assert cert.passed, (base, n, k, cert.failure)
            count += 1
        announce(7, "cert-j-attachment",
                 f"{count} single horn attachments, inclusion passes up to "
                 f"maxdim 3")


# ---------------------------------------------------------------------------
# 8. Solver completeness against brute-force filtering.

class TestCriterion8SolverCompleteness:
    def test_solver_agrees_with_brute_force(self):
        rng = random.Random(801)
        count = 0
        solvable = 0
        unsolvable = 0
        while count < 300:
            i = pick_pair(rng, SMALL_POOL, TINY_POOL)
            f = pick_pair(rng, TINY_POOL, TINY_POOL)
            b, x = i.target, f.source
            if len(enumerate_maps(b, x)) > 10_000:
                continue
            tops = enumerate_maps(i.source, x)
            bottoms = enumerate_maps(b, f.target)
            if not tops or not bottoms:
                continue
            top = tops[rng.randrange(len(tops))]
            ft = compose(f, top)
            matches = [u for u in bottoms if compose(u, i) == ft]
            if not matches:
                continue
            problem = LiftingProblem(i, f, top,
                                     matches[rng.randrange(len(matches))])
            out = solve_lift(problem)
            brute = [h for h in enumerate_maps(b, x)
                     if verify_lift(problem, h)]
            if brute:
                assert isinstance(out, Lift)
                assert out.diagonal == min(brute,
                                           key=lambda h: h.sort_key())
                solvable += 1
            else:
                assert isinstance(out, NoLift)
                unsolvable += 1
            count += 1
        assert solvable and unsolvable
        announce(8, "solver-completeness",
                 f"{count} problems ({solvable} solvable, {unsolvable} "
                 f"unsolvable), exact agreement")


# ---------------------------------------------------------------------------
# 9. CLI golden tests.

class TestCriterion9CliGolden:
    CASES = [
        ("lift_identity.txt", 0,
         ["lift", str(DATA / "lift_identity.sset"),
          "--left", "inc", "--right", "idD", "--top", "top",
          "--bottom", "idD"]),
        ("rlp_boundary.txt", 1,
         ["rlp", str(DATA / "rlp_boundary.sset"),
          "--map", "collapse", "--gen", "I", "--cap", "1"]),
        ("factorize_insert.txt", 0,
         ["factorize", str(DATA / "factorize_insert.sset"),
          "--map", "insert", "--gen", "I", "--mode", "reduced",
          "--budget", "5"]),
    ]

    def test_golden_reports(self, capsys):
        from ssetkit.cli import main
        for golden, expected_code, argv in self.CASES:
            want = (GOLDEN / golden).read_bytes()
            outputs = []
            for _ in range(2):
                code = main(list(argv))
                outputs.append(capsys.readouterr().out.encode())
                assert code == expected_code
            assert outputs[0] == outputs[1] == want
        announce(9, "cli-golden",
                 "3 invocations byte-identical across runs with pinned exit "
                 "codes")
