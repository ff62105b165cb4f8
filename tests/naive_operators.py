"""The surjection calculus that `core` replaced, kept as the test oracle.

Monotone maps between finite ordinals are tuples of images: a tuple t of
length m+1 with values in 0..n encodes a monotone [m] -> [n].  `act` is
the earlier `FiniteSimplicialSet.act`, unchanged except that it is a
function of the object and keeps no memo.  It composes the degeneracy
surjection of a reference with the operator, splits the result into a
surjection and an injection, and pushes the injection into the stored faces
by recursion, one dropped vertex per frame.  The library reads faces by the
simplicial identities and degeneracies by words instead, so this calculus
shares no operator code with it beyond `_degenerate`.
"""

from functools import lru_cache

from ssetkit.core import OPERATOR_CACHE_SIZE, SimplexRef, _degenerate


def _mono_compose(f, g):
    # f after g: (f . g)(x) = f(g(x))
    return tuple(f[x] for x in g)


def _mono_identity(n):
    return tuple(range(n + 1))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _coface(i, n):
    # the injection [n-1] -> [n] that skips i
    return tuple(range(i)) + tuple(range(i + 1, n + 1))


def _codegeneracy(i, n):
    # the surjection [n+1] -> [n] that repeats i
    return tuple(x if x <= i else x - 1 for x in range(n + 2))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _word_to_surj(word, base_dim):
    """Surjection [base_dim + len(word)] -> [base_dim] named by a decreasing
    degeneracy word, applied innermost-last."""
    f = _mono_identity(base_dim)
    for i in reversed(word):
        f = _mono_compose(f, _codegeneracy(i, len(f) - 1))
    return f


def _surj_to_word(f):
    """Inverse of `_word_to_surj`: the positions where f repeats, largest first."""
    return tuple(j for j in range(len(f) - 2, -1, -1) if f[j] == f[j + 1])


def _epi_mono(h):
    """Factor a monotone map h as (surjection, injection) with h = inj . surj."""
    image = sorted(set(h))
    rank = {v: t for t, v in enumerate(image)}
    return tuple(rank[v] for v in h), tuple(image)


def act(x, ref, alpha):
    """Normal form of ref . alpha for a monotone alpha: [m'] -> [m],
    where m is the dimension of `ref`.

    The degeneracy part of the composite is split off exactly; the
    injective part is pushed into the stored face data one coface at a
    time, renormalizing after each step.
    """
    k = x._dim_of[ref.base]
    g = _word_to_surj(ref.word, k) if ref.word else _mono_identity(k)
    h = _mono_compose(g, alpha)
    sigma, delta = _epi_mono(h)
    if len(delta) == k + 1:
        return SimplexRef(ref.base, _surj_to_word(sigma))
    missing = max(v for v in range(k + 1) if v not in set(delta))
    face = x._faces[ref.base][missing]
    delta2 = tuple(v if v < missing else v - 1 for v in delta)
    inner = act(x, face, delta2)
    return SimplexRef(inner.base, _degenerate(_surj_to_word(sigma),
                                              inner.word))
