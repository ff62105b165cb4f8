"""The equivalence corpus (`make_corpus.py`): every case's output against
the digest recorded in data/golden/corpus.txt.  A failure lists the ids of
the cases that moved, appeared or disappeared."""

import pytest

import make_corpus


@pytest.mark.parametrize("family", list(make_corpus.FAMILIES))
def test_family_matches_the_recorded_digests(family):
    want = {case: digest for case, digest in make_corpus.recorded().items()
            if case.split(".")[0] == family}
    got = dict(make_corpus.digests(family))
    moved = sorted(case for case in want.keys() | got.keys()
                   if got.get(case) != want.get(case))
    assert not moved, f"{len(moved)} cases moved: " + " ".join(moved)
