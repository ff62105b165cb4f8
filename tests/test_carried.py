"""A presentation carries its realization: stage gluings counted with a spy
on `cells._attach`, and the realization freed with the result that holds
it, without the cycle collector."""

import gc
import pathlib
import weakref

import pytest

from instances import circle
from ssetkit import cells
from ssetkit.cells import (
    CellPresentation,
    PresentationBuilder,
    j_to_i_presentation,
    realize,
)
from ssetkit.cli import main
from ssetkit.core import (
    SimplexRef,
    SimplicialMap,
    boundary,
    enumerate_maps,
    horn,
    simplex,
)
from ssetkit.factorization import factorize, verify_factorization
from ssetkit.formats import parse_cellpres, print_cellpres, print_soa

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def glued(monkeypatch):
    """The ordinals of the stages glued while the test runs."""
    ordinals = []
    real = cells._attach

    def spy(current, attachments, ordinal):
        ordinals.append(ordinal)
        return real(current, attachments, ordinal)

    monkeypatch.setattr(cells, "_attach", spy)
    return ordinals


def circle_run():
    """Two attachment rounds: the circle collapsed to a point."""
    return factorize(enumerate_maps(circle(), simplex(0))[0], "I", cap=3,
                     budget=3)


def horn_presentation():
    b = PresentationBuilder(simplex(1))
    b.attach("J", 2, 0, attaching=SimplicialMap(horn(2, 0), simplex(1), {
        "0": SimplexRef("0"), "1": SimplexRef("1"), "2": SimplexRef("1"),
        "01": SimplexRef("01"), "02": SimplexRef("01")}))
    b.close_stage()
    return b


class TestGluings:
    def test_cli_j2i_glues_three_stages(self, glued, capsys):
        # parsing glues the one horn stage, the conversion its two
        # boundary stages; printing reads what the conversion glued
        assert main(["j2i", str(DATA / "horn_fill.cellpres")]) == 0
        capsys.readouterr()
        assert glued == [1, 1, 2]

    @pytest.mark.parametrize("argv,stages", [
        (["realize", str(DATA / "horn_fill.cellpres")], [1]),
        (["factor-stage", str(DATA / "circle.cellpres"), "--map", "probe"],
         [1, 2]),
    ], ids=["realize", "factor-stage"])
    def test_cli_glues_each_stage_once(self, glued, capsys, argv, stages):
        assert main(argv) == 0
        capsys.readouterr()
        assert glued == stages

    def test_print_soa_glues_nothing(self, glued):
        r = circle_run()
        glued.clear()
        print_soa(r)
        assert glued == []

    def test_verify_factorization_glues_every_stage_again(self, glued):
        r = circle_run()
        glued.clear()
        assert verify_factorization(r).ok
        assert len(r.presentation.stages) == 2
        assert glued == [1, 2]

    def test_parse_carries_what_it_checked(self, glued):
        text = (DATA / "circle.cellpres").read_text()
        pres, _ = parse_cellpres(text)
        assert glued == [1, 2]
        # the file declares a probe after the canonical part
        assert print_cellpres(pres) == text.split("\nobject K")[0]
        assert pres.realization is pres.realization
        assert glued == [1, 2]

    def test_hand_made_presentation_glues_once(self, glued):
        # the builder's presentation carries what the builder glued
        pres = horn_presentation().presentation()
        assert glued == [1]
        text = print_cellpres(pres)
        assert print_cellpres(pres) == text
        assert pres.realization is pres.realization
        assert glued == [1]
        # realize still glues from scratch
        assert realize(pres).final == pres.realization.final
        assert glued == [1, 1]

    def test_presentation_without_a_realization_glues_once(self, glued):
        built = horn_presentation().presentation()
        pres = CellPresentation(built.base, built.stages)
        glued.clear()
        assert print_cellpres(pres) == print_cellpres(built)
        assert print_cellpres(pres) == print_cellpres(built)
        assert glued == [1]

    def test_j_to_i_reads_the_carried_realization(self, glued):
        pres = horn_presentation().presentation()
        glued.clear()
        converted, iso = j_to_i_presentation(pres)
        assert glued == [1, 2]
        assert converted.realization.final == iso.target
        assert glued == [1, 2]

    def test_carried_realization_matches_a_fresh_one(self):
        b = PresentationBuilder(boundary(1))
        b.attach("I", 1, attaching=SimplicialMap(boundary(1), boundary(1), {
            "0": SimplexRef("0"), "1": SimplexRef("1")}))
        b.close_stage()
        carried = b.realized()
        fresh = realize(b.presentation())
        assert carried.objects == fresh.objects
        assert list(carried.birth.items()) == list(fresh.birth.items())


class TestNoCycle:
    """The presentation keeps its realization, the stage record plus stage
    data, and the realization holds no reference back to the presentation,
    so plain reference counting frees it."""

    @staticmethod
    def dies_without_collector(make):
        gc.disable()
        try:
            holder, record = make()
            ref = weakref.ref(record)
            del holder, record
            return ref() is None
        finally:
            gc.enable()

    def test_dropping_a_factorization_frees_its_record(self):
        def make():
            r = circle_run()
            print_soa(r)
            return r, r.realization
        assert self.dies_without_collector(make)

    def test_dropping_a_presentation_frees_its_record(self):
        def make():
            pres = horn_presentation().presentation()
            print_cellpres(pres)
            return pres, pres.realization
        assert self.dies_without_collector(make)
