"""The equivalence corpus: outputs that a refactor must keep byte-identical,
recorded as one line per case in data/golden/corpus.txt, a stable case id
and the SHA-256 of the case's canonical text.  `test_corpus.py` recomputes
every case and names each one whose digest moved.

The cases come from the tests' own generators, never from `bench/`:
- `acceptance.NN` and `seminaive.NAME`: the acceptance corpus and the
  multi-round runs of `test_seminaive`.  Per run: `soa` (`print_soa`),
  `squares` (each stage's square keys), `attached`, `witnesses` (their
  images), `residual` and `verify` (`verify_factorization`'s issues).
- `mutation.NAME.verify`: the issues of `test_seminaive`'s planted defects.
- `rlp.NNN.KC`: `check_rlp(f, K, C).lines()` and the diagonals' images for
  each map f of `test_search.right_maps()`, K in I/J and cap C in 0..2.
- `hom.A.X`: `enumerate_maps(A, X)` in order, one map's images a line, for
  A and X among the objects of `instances.SMALL_POOL` (named `poolNN` by
  position) and the simplices, boundaries and horns of dimension <= 3.
- `refuted.NNN.KC`: `solve_lift`'s `NoLift.refuted` for each square the
  `rlp` sweep leaves unsolved, by square index; cases with none are left
  out.
- `homology.NAME`: `homology_groups` up to one past the object's dimension,
  for the objects of data/homology.sset and the boundaries of dimension
  <= 6.
- `wecert.NAME`: `weak_equivalence_certificate(i, d).line()` and its
  failure, for d in 0..n, on the horn and boundary inclusions into the
  n-simplex with n <= 4.
- `j2i.NAME`: `j_to_i_presentation`'s converted presentation
  (`print_cellpres`) and the isomorphism's images, for
  data/horn_fill.cellpres, the J runs of the acceptance corpus (named by
  their `acceptance` number) and the first presentations of acceptance
  criterion 6 (`criterion6.NN`).
- `realize.NAME`: a realization's births (`birth NAME=k` in the final
  object's order), then, for each stage s and each characteristic map
  char of s, `factor_through_stage` of char pushed to the final object:
  its k and images.  The realizations are those of the parsable
  data/*.cellpres files (`cellpres.NAME`), of the acceptance corpus and of
  the first presentations of acceptance criterion 6.

Rewrite the file after a change that is meant to move outputs, and say
which cases moved and why:

    PYTHONPATH=src python tests/make_corpus.py
"""

import hashlib
import pathlib
import random

import test_seminaive
from instances import NONEMPTY_POOL, SMALL_POOL, random_j_presentation
from test_acceptance import _factorization_corpus
from test_search import right_maps
from ssetkit.cells import factor_through_stage, j_to_i_presentation
from ssetkit.core import (
    boundary,
    boundary_inclusion,
    compose,
    enumerate_maps,
    horn,
    horn_inclusion,
    simplex,
)
from ssetkit.factorization import verify_factorization
from ssetkit.formats import (
    parse_cellpres,
    parse_document,
    print_cellpres,
    print_soa,
)
from ssetkit.homology import homology_groups, weak_equivalence_certificate
from ssetkit.lifting import check_rlp, solve_lift

DATA = pathlib.Path(__file__).parent / "data"
CORPUS = DATA / "golden" / "corpus.txt"


def ref_text(ref):
    if not ref.word:
        return ref.base
    return "s" + ",".join(str(i) for i in ref.word) + "." + ref.base


def map_text(m):
    """A map's images in generator order; a missing diagonal is None and
    an undecided one False."""
    if m is None or m is False:
        return str(m)
    return " ".join(ref_text(ref) for ref in m.img) or "(empty)"


def square_text(label, sq):
    return (" ".join(str(part) for part in label) + " | "
            + map_text(sq.top) + " | " + map_text(sq.bottom))


def run_cases(prefix, r):
    """The cases of one factorization run, as (id, canonical text)."""
    squares, attached, witnesses = [], [], []
    for k, stage in enumerate(r.stages):
        squares += [f"{k} {square_text(*square)}" for square in stage.squares]
        attached.append(f"{k} " + " ".join(str(i) for i in stage.attached))
        witnesses += [f"{k} {map_text(w)}" for w in stage.witnesses]
    yield f"{prefix}.soa", print_soa(r)
    yield f"{prefix}.squares", "\n".join(squares)
    yield f"{prefix}.attached", "\n".join(attached)
    yield f"{prefix}.witnesses", "\n".join(witnesses)
    yield f"{prefix}.residual", "\n".join(square_text(*square)
                                          for square in r.residual)
    yield f"{prefix}.verify", "\n".join(verify_factorization(r).issues)


def acceptance_cases():
    for n, r in enumerate(_factorization_corpus()):
        yield from run_cases(f"acceptance.{n:02d}", r)


def seminaive_cases():
    runs = test_seminaive.multi_round_runs() + [
        test_seminaive.circle_run(), test_seminaive.residual_run()]
    for n, r in enumerate(runs):
        yield from run_cases(f"seminaive.{n:02d}", r)


def mutation_cases():
    for build in test_seminaive.MUTATIONS:
        bad, _ = build()
        yield (f"mutation.{build.__name__}.verify",
               "\n".join(verify_factorization(bad).issues))


def rlp_cases():
    for n, f in enumerate(right_maps()):
        for kind in "IJ":
            for cap in range(3):
                report = check_rlp(f, kind, cap)
                diagonals = [map_text(d) for _, _, d in report.entries]
                yield (f"rlp.{n:03d}.{kind}{cap}",
                       "\n".join(report.lines() + diagonals))


def hom_objects():
    """(name, object) for the pool and the standard objects of dimension
    <= 3, each object once, under the first name it is met by."""
    named = [(f"pool{t:02d}", s) for t, s in enumerate(SMALL_POOL)]
    for n in range(4):
        named += [(f"simplex{n}", simplex(n)), (f"boundary{n}", boundary(n))]
        named += [(f"horn{n}_{k}", horn(n, k))
                  for k in range(n + 1) if n >= 1]
    out = []
    for name, s in named:
        if all(s != seen for _, seen in out):
            out.append((name, s))
    return out


def hom_cases():
    objects = hom_objects()
    for a_name, a in objects:
        for x_name, x in objects:
            yield (f"hom.{a_name}.{x_name}",
                   "\n".join(map_text(m) for m in enumerate_maps(a, x)))


def refuted_cases():
    for n, f in enumerate(right_maps()):
        for kind in "IJ":
            for cap in range(3):
                lines = [f"{t} {solve_lift(sq).refuted}"
                         for t, (_, sq, d) in enumerate(
                             check_rlp(f, kind, cap).entries) if d is None]
                if lines:
                    yield f"refuted.{n:03d}.{kind}{cap}", "\n".join(lines)


def homology_cases():
    doc = parse_document((DATA / "homology.sset").read_text(encoding="utf-8"))
    named = list(doc.objects.items()) + [
        (f"boundary{n}", boundary(n)) for n in range(7)]
    for name, s in named:
        groups = homology_groups(s, s.dim + 1)
        yield f"homology.{name}", "\n".join(
            f"H{d} = {g}" for d, g in enumerate(groups))


def wecert_cases():
    named = []
    for n in range(5):
        named += [(f"horn{n}_{k}", horn_inclusion(n, k))
                  for k in range(n + 1) if n >= 1]
        named.append((f"boundary{n}", boundary_inclusion(n)))
    for name, i in named:
        lines = []
        for maxdim in range(i.target.dim + 1):
            cert = weak_equivalence_certificate(i, maxdim)
            lines.append(cert.line() if cert.passed
                         else f"{cert.line()} {cert.failure[1]}")
        yield f"wecert.{name}", "\n".join(lines)


def criterion6_builders():
    """(name, builder) for the first presentations of acceptance criterion
    6."""
    rng = random.Random(601)
    for n in range(20):
        base = rng.choice(NONEMPTY_POOL)
        yield f"criterion6.{n:02d}", random_j_presentation(
            rng, base, max_stages=2, max_cells=3, max_dim=2)


def j_presentations():
    """(name, horn presentation) for the conversion cases."""
    pres, _ = parse_cellpres(
        (DATA / "horn_fill.cellpres").read_text(encoding="utf-8"))
    yield "horn_fill", pres
    for n, r in enumerate(_factorization_corpus()):
        if r.kind == "J":
            yield f"acceptance.{n:02d}", r.presentation
    for name, builder in criterion6_builders():
        yield name, builder.presentation()


def j2i_cases():
    for name, pres in j_presentations():
        converted, iso = j_to_i_presentation(pres)
        yield f"j2i.{name}", print_cellpres(converted) + map_text(iso)


def realizations():
    """(name, realization) for the `realize` cases."""
    for path in sorted(DATA.glob("*.cellpres")):
        # bad_horn is refused and has no case; a file that stops parsing
        # loses its case, and the corpus test names it
        try:
            pres, _ = parse_cellpres(path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        yield f"cellpres.{path.stem}", pres.realization
    for n, r in enumerate(_factorization_corpus()):
        yield f"acceptance.{n:02d}", r.realization
    for name, builder in criterion6_builders():
        yield name, builder.realized()


def realize_cases():
    for name, res in realizations():
        lines = [f"birth {n}={res.birth[n]}" for n in res.final.names()]
        for s, stage in enumerate(res.stage_data, start=1):
            for t, char in enumerate(stage.char_maps):
                k, factored = factor_through_stage(
                    res, compose(res.composite_from(s), char))
                lines.append(f"{s} {t} {k} {map_text(factored)}")
        yield f"realize.{name}", "\n".join(lines)


FAMILIES = {
    "acceptance": acceptance_cases,
    "seminaive": seminaive_cases,
    "mutation": mutation_cases,
    "rlp": rlp_cases,
    "hom": hom_cases,
    "refuted": refuted_cases,
    "homology": homology_cases,
    "wecert": wecert_cases,
    "j2i": j2i_cases,
    "realize": realize_cases,
}


def digests(family):
    """(case id, SHA-256 of its canonical text) for each case of a family,
    in order."""
    for case, text in FAMILIES[family]():
        yield case, hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded():
    """The committed digests by case id."""
    return dict(line.split() for line in
                CORPUS.read_text(encoding="utf-8").splitlines())


def main():
    lines = [f"{case} {digest}\n" for family in FAMILIES
             for case, digest in digests(family)]
    CORPUS.write_text("".join(lines), encoding="utf-8")
    print(f"{CORPUS}: {len(lines)} cases")


if __name__ == "__main__":
    main()
