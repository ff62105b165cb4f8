"""Seeded inputs and operations of the three benchmark workloads.

`build(name, seed, workdir)` returns the fixed list of operations that one
round of a workload runs.  An operation's `call` is the timed region: one
call into ssetkit's public API, looked up through the module attribute at
call time so that the traced run's wrappers see it.  Its `check` runs after
the timing stops and compares the result with `oracle` or with a property
the method must have.

Only `--seed` varies the inputs.  What each round contains (how many
operations of each kind, the object pairs, the space families and their
sizes) is fixed, and the seed picks the maps, the attaching maps, the
vertex orders and the order of the operations.  That keeps the cost of a
round nearly the same on every seed while the inputs differ.
"""

import contextlib
import io
import random
from itertools import combinations

import oracle
import spaces

from ssetkit import cells, cli, core, factorization, formats, homology
from ssetkit.core import FiniteSimplicialSet, SimplexRef, SimplicialMap


class Op:
    """One operation: `call()` is timed; `check(result)` returns a digest of
    the outcome and raises `WrongAnswer` when the outcome is wrong.  `fault`
    names the exception a known defect raises on this input, if any."""

    __slots__ = ("kind", "call", "check", "fault")

    def __init__(self, kind, call, check, fault=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.fault = fault


class WrongAnswer(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


def build(name, seed, workdir):
    rng = random.Random(f"{name}:{seed}")
    ops = {"soa": _soa, "cells": _cells, "homology": _homology}[name](
        rng, workdir)
    rng.shuffle(ops)
    # inputs were generated with ssetkit; timed operations start from the
    # cache state of a fresh process
    core.enumerate_maps.cache_clear()
    return ops


def _circle():
    return FiniteSimplicialSet({0: ["v"], 1: ["e"]},
                               {"e": [SimplexRef("v"), SimplexRef("v")]})


def _pick(rng, a, x):
    homs = core.enumerate_maps(a, x)
    return homs[rng.randrange(len(homs))]


# ---------------------------------------------------------------------------
# soa: factorizations and hom-set enumeration

# (kind, cap, budget); J cap 2 with budget >= 2 has no bound on its work
SOA_MIX = (("I", 3, 6), ("I", 2, 5), ("J", 1, 4), ("J", 2, 1))


def _map_classes(a, x):
    """The maps a -> x grouped by how many nondegenerate simplices they hit.
    A factorization's cost follows that number (a constant map costs far
    more than an injective one), so a round takes one map from each group
    and the seed only chooses within a group."""
    groups = {}
    for f in core.enumerate_maps(a, x):
        hit = {ref.base for ref in f.images.values() if not ref.word}
        groups.setdefault(len(hit), []).append(f)
    return [groups[size] for size in sorted(groups)]


def _soa(rng, workdir):
    pool = [core.empty_sset(), core.simplex(0),
            FiniteSimplicialSet({0: ["p", "q"]}), core.simplex(1),
            core.boundary(1), _circle()]
    s1 = pool[-1]
    ops = []
    turn = 0
    for a in pool:
        for x in pool:
            classes = _map_classes(a, x)
            if not classes:
                continue
            if s1 in (a, x):
                # I cap 3 and J cap 1 on maps into or out of the circle are
                # the slow mode; up to two maps of each group make enough
                # of the round that the p90 sits inside it
                settings, per_group = (SOA_MIX[0], SOA_MIX[2]), 2
            else:
                settings, per_group = (SOA_MIX[turn % len(SOA_MIX)],), 1
                turn += 1
            for kind, cap, budget in settings:
                for maps in classes:
                    for f in rng.sample(maps, min(len(maps), per_group)):
                        ops.append(_factorize_op(f, kind, cap, budget))
    for n in range(5):
        for m in range(5):
            if n + m <= 5:
                ops.append(_hom_op(core.simplex(n), core.simplex(m),
                                   oracle.hom_simplex_simplex(n, m)))
    for n, m in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)):
        ops.append(_hom_op(core.boundary(n), core.simplex(m),
                           oracle.hom_boundary_simplex(n, m)))
    for m in range(6):
        ops.append(_hom_op(core.boundary(1), core.simplex(m),
                           oracle.hom_boundary1_simplex(m)))
    for n in range(5):
        ops.append(_hom_op(core.simplex(n), s1, oracle.hom_simplex_circle(n)))
    # the search recurses once per generator: Delta^9 has 1023 of them
    ops.append(_hom_op(core.simplex(9), core.simplex(0),
                       oracle.hom_simplex_simplex(9, 0),
                       fault="RecursionError"))
    return ops


def _factorize_op(f, kind, cap, budget):
    def call():
        run = factorization.factorize(f, kind, cap=cap, mode="reduced",
                                      budget=budget)
        return run, factorization.verify_factorization(run)

    def check(result):
        run, report = result
        expect(core.compose(run.right, run.left) == f,
               "factorize: right . left != f")
        expect(report.ok, f"verify_factorization: {report}")
        if kind == "I" and cap == 3 and run.converged:
            cert = homology.weak_equivalence_certificate(run.right, 3)
            expect(cert.passed, "converged I cap 3 right factor fails "
                   "the weak-equivalence certificate")
        if kind == "J":
            cert = homology.weak_equivalence_certificate(run.left, 3)
            expect(cert.passed, "J left factor fails the weak-equivalence "
                   "certificate")
        return (f"{run.converged}:{run.stages_run}:{len(run.residual)}:"
                f"{run.middle.size()}")

    return Op(f"factorize_{kind}{cap}b{budget}", call, check)


def _hom_op(a, x, count, fault=None):
    def call():
        return core.enumerate_maps(a, x)

    def check(maps):
        expect(len(maps) == count, f"hom: {len(maps)} maps, expected {count}")
        return str(len(maps))

    return Op("hom", call, check, fault)


# ---------------------------------------------------------------------------
# cells: documents run in-process through the command line

# (name, object, size from the oracle's closed forms)
def _bases():
    return [("point", core.simplex(0), oracle.simplex_size(0)),
            ("two_points", FiniteSimplicialSet({0: ["p", "q"]}), 2),
            ("interval", core.simplex(1), oracle.simplex_size(1)),
            ("boundary1", core.boundary(1), oracle.boundary_size(1)),
            ("circle", _circle(), 2),
            ("horn2_1", core.horn(2, 1), oracle.horn_size(2))]


# Stage shapes as (kind, n) per cell.  A document's cost follows its shape
# and its base, so both are fixed per document slot; the seed picks the
# horn indices, the attaching maps and everything mutated or probed.
SHAPES = (
    ((("I", 1),), (("J", 2),)),
    ((("J", 1), ("I", 0)),),
    ((("J", 2),), (("I", 2), ("J", 1)), (("I", 1),)),
    ((("I", 2),), (("J", 2),)),
    ((("I", 0),), (("J", 1),), (("J", 2), ("I", 1))),
)
J_SHAPES = (
    ((("J", 1),),),
    ((("J", 2),), (("J", 1),)),
    ((("J", 2), ("J", 1)),),
)


def _presentation(rng, base, shape):
    """A presentation of the given shape with seeded horn indices and
    attaching maps."""
    builder = cells.PresentationBuilder(base)
    for stage in shape:
        for kind, n in stage:
            if kind == "I":
                k, src = None, core.boundary(n)
            else:
                k = rng.randint(0, n)
                src = core.horn(n, k)
            builder.attach(kind, n, k,
                           attaching=_pick(rng, src, builder.current))
        builder.close_stage()
    return builder


def _top_name(n):
    return "".join(str(v) for v in range(n + 1))


def _yoneda(target, name):
    """The map Delta^d -> target sending the top simplex to `name`."""
    d = target.dim_of(name)
    images = {}
    for size in range(1, d + 2):
        for verts in combinations(range(d + 1), size):
            images["".join(map(str, verts))] = target.act(SimplexRef(name),
                                                          verts)
    return SimplicialMap(core.simplex(d), target, images)


def _sset_text(objects, maps=()):
    doc = formats.Document()
    for name, obj in objects:
        doc.objects[name] = obj
    for name, f, src, tgt in maps:
        doc.add_map(name, f, src, tgt)
    return formats.print_document(doc)


class _Docs:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, text, suffix):
        self.count += 1
        path = self.workdir / f"doc{self.count}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _cli_op(kind, argv, check, fault=None):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return Op(kind, call, check, fault)


def _exit_check(mutation):
    want = oracle.exit_code(mutation)

    def check(result):
        code, _ = result
        expect(code == want, f"{mutation}: exit {code}, expected {want}")
        return str(code)

    return check


def _garble(rng, text):
    lines = text.split("\n")
    idx = rng.choice([i for i, line in enumerate(lines) if line.strip()])
    lines[idx] = "@@ garbled"
    return "\n".join(lines)


def _cells(rng, workdir):
    docs = _Docs(workdir)
    bases = _bases()
    ops = []
    garble_sources = []

    for idx in range(20):
        base_name, base, base_size = bases[idx % len(bases)]
        shape = SHAPES[idx % len(SHAPES)]
        builder = _presentation(rng, base, shape)
        stage = rng.randint(0, len(shape))
        if stage == 0:
            cell = rng.choice(list(base.names()))
        else:
            t = rng.randrange(len(shape[stage - 1]))
            cell = f"c{stage}_{t}_{_top_name(shape[stage - 1][t][1])}"
        probe = _yoneda(builder.current, cell)
        text = (formats.print_cellpres(builder.presentation())
                + _sset_text([("probe_src", probe.source)],
                             [("probe", probe, "probe_src",
                               f"stage{len(shape)}")])[len("sset/1\n"):])
        path = docs.write(text, "cellpres")
        ops.append(_cli_op("realize", ["realize", path],
                           _realize_check(base_size, [[kind for kind, _ in stage]
                                                      for stage in shape])))
        ops.append(_cli_op("factor-stage",
                           ["factor-stage", path, "--map", "probe"],
                           _factor_stage_check(oracle.factor_stage(cell))))
        garble_sources.append((text, "cellpres", ["realize"]))

    for idx in range(10):
        base_name, base, base_size = bases[idx % len(bases)]
        shape = J_SHAPES[idx % len(J_SHAPES)]
        builder = _presentation(rng, base, shape)
        text = formats.print_cellpres(builder.presentation())
        path = docs.write(text, "cellpres")
        ops.append(_cli_op("j2i", ["j2i", path],
                           _j2i_check(base_size, len(shape),
                                      sum(len(st) for st in shape))))
        garble_sources.append((text, "cellpres", ["j2i"]))

    with_edges = [b for b in bases if b[1].dim >= 1]
    for idx in range(16):
        # the first six get a dangling face, so their base has edges
        base_name, base, base_size = (with_edges[idx % len(with_edges)]
                                      if idx < 6 else bases[idx % len(bases)])
        shape = SHAPES[(idx + 2) % len(SHAPES)]
        builder = _presentation(rng, base, shape)
        final_size = oracle.realized_size(
            base_size, [kind for stage in shape for kind, _ in stage])
        text = _sset_text([("base", base), ("final", builder.current)])
        path = docs.write(text, "sset")
        ops.append(_cli_op("validate", ["validate", path],
                           _validate_check({"base": base_size,
                                            "final": final_size})))
        garble_sources.append((text, "sset", ["validate"]))
        if idx < 6:
            ops.append(_cli_op("validate-dangling",
                               ["validate", docs.write(_dangle(rng, text),
                                                       "sset")],
                               _exit_check("dangling_face")))

    targets = [b for b in bases if b[0] != "horn2_1"]
    for idx in range(16):
        base_name, base, base_size = bases[idx % len(bases)]
        shape = SHAPES[(idx + 4) % len(SHAPES)]
        builder = _presentation(rng, base, shape)
        final_size = oracle.realized_size(
            base_size, [kind for stage in shape for kind, _ in stage])
        c_name, c, c_size = targets[idx % len(targets)]
        g = _pick(rng, base, c)
        i = builder.realized().composite()
        text = _sset_text([("base", base), ("final", builder.current),
                           ("C", c)],
                          [("i", i, "base", "final"), ("g", g, "base", "C")])
        path = docs.write(text, "sset")
        ops.append(_cli_op("pushout", ["pushout", path, "--i", "i",
                                       "--g", "g"],
                           _pushout_check(oracle.pushout_size(
                               final_size, base_size, c_size))))
        garble_sources.append((text, "sset", ["pushout", "--i", "i",
                                              "--g", "g"]))

    for text, suffix, argv in garble_sources[::5]:
        path = docs.write(_garble(rng, text), suffix)
        ops.append(_cli_op("garbled", [argv[0], path] + argv[1:],
                           _exit_check("garbled")))

    for mutation, (text, suffix, argv, fault) in FAULT_DOCS.items():
        path = docs.write(text, suffix)
        ops.append(_cli_op(f"fault-{mutation}", [argv[0], path] + argv[1:],
                           _exit_check(mutation), fault))
    return ops


def _dangle(rng, text):
    lines = text.split("\n")
    idx = rng.choice([i for i, line in enumerate(lines)
                      if line.startswith("  faces ")])
    head, refs = lines[idx].split(": ", 1)
    refs = refs.split()
    refs[rng.randrange(len(refs))] = "zz_missing"
    lines[idx] = head + ": " + " ".join(refs)
    return "\n".join(lines)


def _realize_check(base_size, kinds):
    def check(result):
        code, out = result
        expect(code == 0, f"realize: exit {code}")
        lines = out.split("\n")
        flat = [kind for stage in kinds for kind in stage]
        want = (f"realize: stages={len(kinds)} cells={len(flat)} "
                f"final_size={oracle.realized_size(base_size, flat)}")
        expect(lines[0] == want, f"realize: {lines[0]!r}, expected {want!r}")
        born = [0] * (len(kinds) + 1)
        for line in lines:
            if line.startswith("birth "):
                born[int(line.rsplit("=", 1)[1])] += 1
        expect(born == oracle.births(base_size, kinds),
               f"realize: births {born}")
        return lines[0]

    return check


def _factor_stage_check(k):
    def check(result):
        code, out = result
        want = f"factor-stage: k={k}"
        expect(code == 0 and out.startswith(want + "\n"),
               f"factor-stage: exit {code}, {out[:40]!r}, expected {want!r}")
        return want

    return check


def _j2i_check(base_size, stage_count, j_count):
    def check(result):
        code, out = result
        want = (f"j2i: attachments {j_count} -> "
                f"{oracle.j2i_attachments(j_count)}, isomorphism verified")
        expect(code == 0 and out.startswith(want + "\n"),
               f"j2i: exit {code}, {out[:60]!r}")
        sizes = oracle.object_sizes(out)
        last = f"stage{2 * stage_count}"
        expect(sizes.get(last) == oracle.realized_size(
            base_size, ["J"] * j_count), f"j2i: {last} has {sizes.get(last)}")
        return want

    return check


def _validate_check(sizes):
    def check(result):
        code, out = result
        want = "".join(f"object {name}: valid ({size} simplices)\n"
                       for name, size in sizes.items())
        expect(code == 0 and out == want, f"validate: exit {code}, {out!r}")
        return out

    return check


def _pushout_check(size):
    def check(result):
        code, out = result
        lines = out.split("\n")
        want = f"pushout: corner has {size} simplices"
        expect(code == 0 and lines[0] == want,
               f"pushout: exit {code}, {lines[0]!r}, expected {want!r}")
        provenance = sum(line.startswith("provenance ") for line in lines)
        expect(provenance == size, f"pushout: {provenance} provenance lines")
        return lines[0]

    return check


# Documents that hit the known faults.  They do not depend on the seed, so
# each round fails the same operations.  Each maps to the exit code the
# command line promises for ill-formed input.
FAULT_DOCS = {
    # image names a simplex missing from the target: KeyError in map_errors
    "missing_image": ("""sset/1

object A
  dim 0: a

object B
  dim 0: 0 1
  dim 1: 01
  faces 01: 1 0

object C
  dim 0: p

map i : A -> B
  a -> 0

map g : A -> C
  a -> zz
""", "sset", ["pushout", "--i", "i", "--g", "g"], "KeyError"),
    # degeneracy word not in normal form: IndexError in act
    "bad_word": ("""sset/1

object A
  dim 0: 0 1
  dim 1: 01
  faces 01: 1 0

object C
  dim 0: p

map i : A -> A
  0 -> 0
  1 -> 1
  01 -> 01

map g : A -> C
  0 -> p
  1 -> p
  01 -> s[1]·p
""", "sset", ["pushout", "--i", "i", "--g", "g"], "IndexError"),
    # attaching image names a missing simplex: KeyError out of realize
    "attach_missing": ("""cellpres/1
base base
stage=1 gen=I n=1 attach=attach1_0
sset/1

object base
  dim 0: 0 1

object boundary1
  dim 0: 0 1

map attach1_0 : boundary1 -> base
  0 -> 0
  1 -> zz
""", "cellpres", ["realize"], "KeyError"),
}


# ---------------------------------------------------------------------------
# homology: textbook spaces and weak-equivalence certificates

def _complex(rng, facets):
    """The ordered simplicial complex spanned by `facets`, as a simplicial
    set, with a seeded vertex order; simplices are listed in the order of
    their sorted vertex tuples.  Returns the object and its simplex
    counts."""
    vertices = sorted({v for f in facets for v in f}, key=repr)
    ranks = list(range(len(vertices)))
    rng.shuffle(ranks)
    rank = dict(zip(vertices, ranks))
    simplices = set()
    for f in facets:
        r = tuple(sorted(rank[v] for v in f))
        for size in range(1, len(r) + 1):
            simplices.update(combinations(r, size))
    top = max(len(s) for s in simplices) - 1
    by_dim = [sorted(s for s in simplices if len(s) == d + 1)
              for d in range(top + 1)]

    def name(s):
        return "v" + "_".join(map(str, s))

    faces = {name(s): [SimplexRef(name(s[:i] + s[i + 1:]))
                       for i in range(len(s))]
             for s in simplices if len(s) >= 2}
    obj = FiniteSimplicialSet({d: [name(s) for s in names]
                               for d, names in enumerate(by_dim)}, faces)
    return obj, [len(names) for names in by_dim]


def _quotient_sphere(n):
    """Delta^n / boundary as a simplicial set: one vertex and one n-simplex
    whose faces are all the degenerate (n-1)-simplex on that vertex."""
    word = tuple(range(n - 2, -1, -1))
    return FiniteSimplicialSet({0: ["v"], n: ["s"]},
                               {"s": [SimplexRef("v", word)] * (n + 1)})


def _homology(rng, workdir):
    """Spaces are repeated with fresh vertex orders so that the round's
    latencies have no gap at p50 or p90: 14 copies of the 3x4 torus hold
    the median and 12 of the 5x5 torus hold the 90th percentile."""
    rp2 = spaces.PROJECTIVE_PLANE
    # (label, facets, expected groups up to the top dimension, copies)
    cases = [(f"boundary{n}", spaces.boundary(n),
              oracle.sphere(n - 1, n - 1), 1) for n in range(2, 9)]
    cases += [(f"simplex{n}", spaces.simplex(n), oracle.point(n), 1)
              for n in range(1, 6)]
    cases += [(f"horn{n}", spaces.horn(n, rng.randint(0, n)),
               oracle.point(n - 1), 1) for n in range(2, 6)]
    cases += [(f"torus{p}x{q}", spaces.torus(p, q), oracle.torus(2), copies)
              for (p, q), copies in (((3, 3), 3), ((3, 4), 14), ((4, 4), 5),
                                     ((4, 5), 5), ((5, 5), 12), ((5, 6), 1))]
    cases += [(f"klein{p}x{q}", spaces.klein_bottle(p, q),
               oracle.klein_bottle(2), copies)
              for (p, q), copies in (((3, 4), 1), ((4, 4), 4), ((4, 5), 5),
                                     ((5, 5), 1), ((5, 6), 1))]
    cases += [
        ("rp2", rp2, oracle.projective_plane(2), 6),
        ("rp2+torus",
         spaces.tagged(0, rp2) + spaces.tagged(1, spaces.torus(3, 4)),
         oracle.disjoint_union(oracle.projective_plane(2), oracle.torus(2)),
         4),
        ("klein+boundary4+rp2",
         spaces.tagged(0, spaces.klein_bottle(3, 4))
         + spaces.tagged(1, spaces.boundary(4)) + spaces.tagged(2, rp2),
         oracle.disjoint_union(oracle.klein_bottle(3), oracle.sphere(3, 3),
                               oracle.projective_plane(3)), 1),
        ("points+simplex3",
         [((0, "a"),), ((1, "b"),)] + spaces.tagged(2, spaces.simplex(3)),
         oracle.disjoint_union(oracle.sphere(0, 3), oracle.point(3)), 1),
    ]
    ops = []
    for label, facets, groups, copies in cases:
        for _ in range(copies):
            obj, counts = _complex(rng, facets)
            ops.append(_homology_op(label, obj, counts, groups))
    for n in range(1, 6):
        ops.append(_homology_op(f"quotient{n}", _quotient_sphere(n),
                                [1] + [0] * (n - 1) + [1],
                                oracle.sphere(n, n)))
    for n in range(2, 5):
        for k in range(n + 1):
            ops.append(_cert_op(core.horn_inclusion(n, k), n, None))
        ops.append(_cert_op(core.boundary_inclusion(n), n, f"H{n}"))
    return ops


def _homology_op(label, obj, counts, groups):
    maxdim = len(counts) - 1

    def call():
        return homology.homology_groups(obj, maxdim)

    def check(result):
        got = [(g.betti, tuple(g.torsion)) for g in result]
        expect(got == groups, f"homology {label}: {got}, expected {groups}")
        expect(oracle.euler_from_counts(counts)
               == oracle.euler_from_groups(got),
               f"homology {label}: Euler characteristic mismatch")
        return " ".join(map(str, result))

    return Op(f"homology-{label}", call, check)


def _cert_op(f, maxdim, level):
    def call():
        return homology.weak_equivalence_certificate(f, maxdim)

    def check(cert):
        if level is None:
            expect(cert.passed, f"we-cert: horn inclusion: {cert.line()}")
        else:
            expect(not cert.passed and cert.failure[0] == level,
                   f"we-cert: {cert.line()}, expected failure at {level}")
        return cert.line()

    return Op("we-cert", call, check)

