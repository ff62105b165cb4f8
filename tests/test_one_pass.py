"""The one-pass birth indices and the one-walk `validate` against the code
they replaced (`naive_births`, `naive_validate`): the same birth dict in
the same key order on random chains of inclusions, renaming ones included,
and the same issue lists, text and order, on objects with dangling faces,
duplicate names, wrong face counts and broken identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_births
import naive_validate
from instances import SMALL_POOL, random_presentation
from ssetkit.colimits import sequential_colimit
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary,
    horn,
    minimal_subcomplex,
    simplex,
    validate,
)


def sphere2():
    v = SimplexRef("v", (0,))
    return FiniteSimplicialSet({0: ["v"], 2: ["t"]}, {"t": [v, v, v]})


POOL = SMALL_POOL + [simplex(2), simplex(3), boundary(3), horn(3, 1),
                     sphere2()]


def renamed(rng, s):
    """An isomorphic copy of s under fresh names, with the simplices of
    each dimension shuffled, and the isomorphism s -> copy."""
    names = list(s.names())
    fresh = [f"r{t}" for t in range(len(names))]
    rng.shuffle(fresh)
    to = dict(zip(names, fresh))
    by_dim = {}
    for d in range(s.dim + 1):
        row = [to[n] for n in s.simplices(d)]
        rng.shuffle(row)
        by_dim[d] = row
    faces = {to[n]: tuple(SimplexRef(to[r.base], r.word)
                          for r in s.faces_of(n))
             for n in s.names() if s.dim_of(n) >= 1}
    copy = FiniteSimplicialSet(by_dim, faces)
    return copy, SimplicialMap(s, copy, {n: SimplexRef(to[n]) for n in names})


def then(iso, inc):
    """inc followed by the renaming iso."""
    return SimplicialMap(inc.source, iso.target, {
        n: SimplexRef(iso.images[r.base].base, r.word)
        for n, r in inc.images.items()})


def subcomplex_chain(rng):
    """Inclusions X_0 -> ... -> X_m of face-closed subobjects growing to a
    pool object."""
    x = rng.choice([s for s in POOL if not s.is_empty])
    names = list(x.names())
    rng.shuffle(names)
    cuts = sorted(rng.sample(range(1, len(names) + 1),
                             rng.randint(1, min(4, len(names)))))
    subs = [minimal_subcomplex(x, names[:c])[0] for c in cuts]
    if subs[-1] != x:
        subs.append(x)
    return [minimal_subcomplex(b, list(a.names()))[1]
            for a, b in zip(subs, subs[1:])], subs[0]


def presentation_chain(rng):
    builder = random_presentation(rng, rng.choice(POOL[:6]), 3, 5)
    return [d.inclusion for d in builder.stage_data], builder.base


@st.composite
def chains(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    incs, base = (subcomplex_chain if draw(st.booleans())
                  else presentation_chain)(rng)
    if draw(st.booleans()):
        # rename every stage: the inclusions no longer keep names
        out = []
        prev = base_iso = renamed(rng, base)[1]
        for inc in incs:
            iso = renamed(rng, inc.target)[1]
            moved = then(iso, inc)
            out.append(SimplicialMap(prev.target, iso.target, {
                prev.images[n].base: moved.images[n]
                for n in inc.source.names()}))
            prev = iso
        incs, base = out, base_iso.target
    return incs, base


class TestBirths:
    @settings(max_examples=120, deadline=None)
    @given(chains())
    def test_same_births_in_the_same_order(self, chain):
        incs, base = chain
        new = sequential_colimit(incs, base=base)
        old = naive_births.sequential_colimit(incs, base=base)
        assert list(new.birth.items()) == list(old.birth.items())
        assert new.objects == old.objects

    def test_renaming_chain_is_drawn(self):
        rng = random.Random(3)
        s, iso = renamed(rng, boundary(2))
        assert set(s.names()).isdisjoint(boundary(2).names())
        rec = sequential_colimit([iso])
        assert list(rec.birth.items()) == list(
            naive_births.sequential_colimit([iso]).birth.items())
        assert set(rec.birth.values()) == {0}

    @pytest.mark.parametrize("images", [
        {"v": SimplexRef("v", (0,))},
        {"p": SimplexRef("v"), "q": SimplexRef("v")},
    ], ids=["degenerate", "not-injective"])
    def test_same_errors(self, images):
        src = FiniteSimplicialSet({0: sorted(images)})
        target = FiniteSimplicialSet({0: ["v"], 1: ["e"]},
                                     {"e": [SimplexRef("v"), SimplexRef("v")]})
        bad = SimplicialMap(src, target, images)
        messages = []
        for fn in (sequential_colimit, naive_births.sequential_colimit):
            with pytest.raises(ValueError) as info:
                fn([bad])
            messages.append(str(info.value))
        assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# validate

def _outcome(fn, s):
    try:
        return fn(s).issues
    except Exception as exc:     # both must fail alike
        return type(exc)


@st.composite
def damaged(draw):
    """A pool object with a few defects of the kinds `validate` reports."""
    s = draw(st.sampled_from([x for x in POOL if x.dim >= 1]))
    by_dim = {d: list(s.simplices(d)) for d in range(s.dim + 1)}
    faces = {n: list(s.faces_of(n)) for n in s.names() if s.dim_of(n) >= 1}
    names = list(s.names())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["dangling", "duplicate", "drop-face",
                                   "extra-face", "swap-face", "no-faces",
                                   "bad-word", "degenerate-face"]))
        name = draw(st.sampled_from(sorted(faces) or names))
        if op == "duplicate":
            d = draw(st.sampled_from(sorted(by_dim)))
            by_dim[d].insert(draw(st.integers(0, len(by_dim[d]))), name)
            continue
        refs = faces.get(name)
        if not refs:
            continue
        at = draw(st.integers(0, len(refs) - 1))
        if op == "dangling":
            refs[at] = SimplexRef("zz")
        elif op == "drop-face":
            del refs[-1]
        elif op == "extra-face":
            refs.append(refs[0])
        elif op == "swap-face" and s.has(refs[at].base):
            # another simplex of the same dimension: breaks identities
            peers = [n for n in names
                     if s.dim_of(n) == s.dim_of(refs[at].base)]
            refs[at] = SimplexRef(draw(st.sampled_from(peers)),
                                  refs[at].word)
        elif op == "no-faces":
            del faces[name]
        elif op == "bad-word":
            refs[at] = SimplexRef(refs[at].base, (0, 0))
        elif op == "degenerate-face":
            refs[at] = SimplexRef(names[0], (0,) * max(0, len(refs) - 2))
    return FiniteSimplicialSet(by_dim, faces)


class TestValidate:
    @settings(max_examples=300, deadline=None)
    @given(damaged())
    def test_same_issues_in_the_same_order(self, s):
        assert _outcome(validate, s) == _outcome(naive_validate.validate, s)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(POOL))
    def test_valid_objects_stay_valid(self, s):
        assert validate(s).issues == naive_validate.validate(s).issues == []

    def test_every_kind_of_issue(self):
        kinds = {"duplicate simplex name", "no face list", "expected",
                 "dangling reference", "has dimension", "not in normal form",
                 "identity"}
        seen = set()
        for obj in _hand_damaged():
            issues = validate(obj).issues
            assert issues == naive_validate.validate(obj).issues
            seen.update(k for k in kinds for issue in issues if k in issue)
        assert seen == kinds


def _hand_damaged():
    v, e = SimplexRef("v"), SimplexRef("e")
    yield FiniteSimplicialSet({0: ["v"], 1: ["v"]}, {"v": [v, v]})
    yield FiniteSimplicialSet({0: ["v"], 1: ["e"]}, {})
    yield FiniteSimplicialSet({0: ["v"], 1: ["e"]}, {"e": [v]})
    yield FiniteSimplicialSet({0: ["v"], 1: ["e"]}, {"e": [v, SimplexRef("x")]})
    yield FiniteSimplicialSet({0: ["v"], 1: ["e"], 2: ["t"]},
                              {"e": [v, v], "t": [e, e, v]})
    yield FiniteSimplicialSet({0: ["v"], 1: ["e"], 2: ["t"]},
                              {"e": [v, v],
                               "t": [e, e, SimplexRef("v", (1,))]})
    # faces of the right shape that break face_0 face_0 = face_0 face_1
    yield FiniteSimplicialSet(
        {0: ["a", "b"], 1: ["ab", "ba"], 2: ["t"]},
        {"ab": [SimplexRef("b"), SimplexRef("a")],
         "ba": [SimplexRef("a"), SimplexRef("b")],
         "t": [SimplexRef("ab"), SimplexRef("ab"), SimplexRef("ab")]})
