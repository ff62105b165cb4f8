"""The benchmark's tracer finds every layer it wraps: each (module,
attribute) in `bench/spans.py`'s TRACED still names a function of ssetkit,
so that a refactor cannot break `bench/run.py --trace 1` unnoticed."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module,attr", spans.TRACED,
                         ids=[f"{m}.{a}" for m, a in spans.TRACED])
def test_traced_binding_resolves(module, attr):
    owner = importlib.import_module(f"ssetkit.{module}")
    if "." in attr:
        # a method is wrapped on its class, where it must be defined
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        assert meth in vars(owner)
        attr = meth
    assert callable(getattr(owner, attr))


def test_the_tracer_installs_and_uninstalls():
    from ssetkit import core, lifting

    originals = (lifting.solve_lift, core.compose, core.FiniteSimplicialSet.act)
    tracer = spans.Tracer([])
    tracer.install()
    try:
        assert lifting.solve_lift is not originals[0]
        assert lifting.solve_lift.__wrapped__ is originals[0]
    finally:
        tracer.uninstall()
    assert (lifting.solve_lift, core.compose,
            core.FiniteSimplicialSet.act) == originals
