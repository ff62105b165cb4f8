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

Rewrite the file after a change that is meant to move outputs, and say
which cases moved and why:

    PYTHONPATH=src python tests/make_corpus.py
"""

import hashlib
import pathlib

import test_seminaive
from test_acceptance import _factorization_corpus
from test_search import right_maps
from ssetkit.factorization import verify_factorization
from ssetkit.formats import print_soa
from ssetkit.lifting import check_rlp

CORPUS = pathlib.Path(__file__).parent / "data" / "golden" / "corpus.txt"


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


FAMILIES = {
    "acceptance": acceptance_cases,
    "seminaive": seminaive_cases,
    "mutation": mutation_cases,
    "rlp": rlp_cases,
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
