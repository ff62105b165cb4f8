"""The stage construction that `cells._attach` replaced, kept as the test
oracle.

`_realize_stage` and `realize` are the earlier library code, unchanged:
each stage is a coproduct of standard cells glued to the previous stage by
the general union-find `colimits.pushout`, renamed with `relabel` and
recomposed into characteristic maps and an inclusion.  `StageData` keeps
the renamed `PushoutResult`, so maps out of a stage can be built with
`colimits.pushout_induced` from a cocone on the coproduct's "i{t}_{w}"
names.  `relabel` was `core.relabel`, whose only caller was this stage
construction.
"""

from ssetkit.cells import RealizeResult
from ssetkit.colimits import (
    PushoutResult,
    coproduct,
    pushout,
    sequential_colimit,
)
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    compose,
    identity,
    simplex,
)
from ssetkit.lifting import generator


def generator_source(kind, n, k=None):
    """The source of the generator `lifting.generator(kind, n, k)`."""
    return generator(kind, n, k).source


def relabel(s, renaming):
    """Rename the nondegenerate simplices of `s` via the bijection `renaming`
    (old name -> new name); returns the renamed object and the isomorphism
    from `s` onto it."""
    if len(set(renaming.values())) != len(renaming):
        raise ValueError("relabel: renaming is not injective")
    by_dim = {d: [renaming[n] for n in s.simplices(d)]
              for d in range(s.dim + 1)}
    faces = {renaming[n]: tuple(SimplexRef(renaming[r.base], r.word)
                                for r in s.faces_of(n))
             for n in s.names() if s.dim_of(n) >= 1}
    out = FiniteSimplicialSet(by_dim, faces)
    iso = SimplicialMap(s, out, {n: SimplexRef(renaming[n])
                                 for n in s.names()})
    return out, iso


class StageData:
    """Per-stage bookkeeping of a realization: the (renamed) pushout, one
    characteristic map per attached cell, and the stage inclusion."""

    def __init__(self, pushout_result, char_maps, inclusion):
        self.pushout = pushout_result
        self.char_maps = list(char_maps)
        self.inclusion = inclusion


def _realize_stage(current, attachments, ordinal):
    """Attach one stage's worth of cells to `current` via a single pushout
    of a coproduct, then rename the corner so that surviving simplices keep
    their names and new cells get canonical "c{ordinal}_{t}_{w}" names."""
    for t, att in enumerate(attachments):
        if att.attaching.target != current:
            raise ValueError(f"stage {ordinal}: attaching map {t} does not "
                             "land in the previous stage")
    if not attachments:
        return StageData(None, [], identity(current))

    sources, src_injs = coproduct(
        [generator_source(att.kind, att.n, att.k) for att in attachments])
    targets, tgt_injs = coproduct(
        [simplex(att.n) for att in attachments])
    gen_map = SimplicialMap(sources, targets, {
        src_injs[t].images[n].base: tgt_injs[t].images[n]
        for t, att in enumerate(attachments)
        for n in att.attaching.source.names()})
    attach_map = SimplicialMap(sources, current, {
        src_injs[t].images[n].base: att.attaching.images[n]
        for t, att in enumerate(attachments)
        for n in att.attaching.source.names()})
    p = pushout(gen_map, attach_map)

    renaming = {}
    for name in p.corner.names():
        froms_b, froms_c = p.provenance[name]
        if froms_c:
            renaming[name] = froms_c[0]
        else:
            t, _, w = froms_b[0].partition("_")
            renaming[name] = f"c{ordinal}_{t[1:]}_{w}"
    if len(set(renaming.values())) != len(renaming):
        raise ValueError(f"stage {ordinal}: attached-cell names collide with "
                         "existing simplices (rename the base away from "
                         "'c<stage>_' prefixes)")
    corner, iso = relabel(p.corner, renaming)
    leg_b = compose(iso, p.leg_from_b)
    leg_c = compose(iso, p.leg_from_c)
    provenance = {renaming[n]: pr for n, pr in p.provenance.items()}
    renamed = PushoutResult(corner, leg_b, leg_c, provenance)
    chars = [compose(leg_b, tgt_injs[t]) for t in range(len(attachments))]
    return StageData(renamed, chars, leg_c)


def realize(presentation):
    """Realize a presentation stagewise; raises when some attaching map does
    not land in its stage."""
    current = presentation.base
    data = []
    for s, attachments in enumerate(presentation.stages):
        stage = _realize_stage(current, attachments, s + 1)
        data.append(stage)
        current = stage.inclusion.target
    record = sequential_colimit([d.inclusion for d in data],
                                base=presentation.base)
    return RealizeResult(record, data)
