"""The equivalence corpus (`make_corpus.py`): every case's output against
the digest recorded in data/golden/corpus.txt.  A failure lists the ids of
the cases that moved, appeared or disappeared.  An exception stops its
family; the failure then gives the exception's type and text and lists the
recorded cases left uncomputed as well."""

import hashlib

import pytest

import make_corpus


def _listing(label, cases):
    return f"{len(cases)} {label}: " + " ".join(sorted(cases))


def mismatch(family):
    """How the family's cases differ from their recorded digests (empty
    when they match), and the exception that stopped the family, if any."""
    want = {case: digest for case, digest in make_corpus.recorded().items()
            if case.split(".")[0] == family}
    got, report, error = {}, [], None
    try:
        for case, digest in make_corpus.digests(family):
            got[case] = digest
    except Exception as exc:    # list the cases it cut off, too
        error, unreached = exc, want.keys() - got.keys()
        report += [f"{type(exc).__name__}: {exc}",
                   _listing("recorded cases never computed", unreached)]
    else:
        unreached = set()
    moved = [case for case in (want.keys() | got.keys()) - unreached
             if got.get(case) != want.get(case)]
    if moved:
        report.append(_listing("cases moved", moved))
    return "\n".join(report), error


@pytest.mark.parametrize("family", list(make_corpus.FAMILIES))
def test_family_matches_the_recorded_digests(family):
    report, error = mismatch(family)
    if report:      # chained, so the failure shows the error's traceback
        raise AssertionError(report) from error


class TestMismatchReport:
    """The report itself, on a made-up family `toy` whose third case
    raises."""

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.fixture
    def toy(self, monkeypatch):
        def cases():
            yield "toy.a", "a"
            yield "toy.b", "moved"
            raise IndexError("list index out of range")

        recorded = {f"toy.{c}": self.digest(c) for c in "abcd"}
        monkeypatch.setitem(make_corpus.FAMILIES, "toy", cases)
        monkeypatch.setattr(make_corpus, "recorded", lambda: recorded)
        return recorded

    def test_an_exception_names_its_type_and_the_cases(self, toy):
        report, error = mismatch("toy")
        assert report == ("IndexError: list index out of range\n"
                          "2 recorded cases never computed: toy.c toy.d\n"
                          "1 cases moved: toy.b")
        assert isinstance(error, IndexError)

    def test_without_an_exception_missing_cases_moved(self, toy,
                                                      monkeypatch):
        monkeypatch.setitem(make_corpus.FAMILIES, "toy",
                            lambda: iter([("toy.a", "a"), ("toy.e", "e")]))
        assert mismatch("toy") == \
            ("4 cases moved: toy.b toy.c toy.d toy.e", None)
