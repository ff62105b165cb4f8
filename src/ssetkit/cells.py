"""Cell presentations: staged attachments of boundary- or horn-cells,
their realization as a chain of inclusions with birth indices, factoring
maps from finite objects through a finite stage, and the conversion of a
horn presentation into a boundary presentation of twice the length.

Stage indices play the role of presentation ordinals; only finitely many
stages can occur here, which is all that maps from finite objects can see.

A stage is the pushout of a coproduct of generators along the attaching
maps.  Every generator is a monomorphism, so no general pushout is needed:
the stage's nondegenerate simplices are those of the previous stage plus
those of each standard cell outside its generator's source, and their
faces are read off directly (Goerss-Jardine, Simplicial Homotopy Theory,
I.1).  `StageData.induced` is the universal property of that pushout; like
the inverse that `j_to_i_presentation` checks, it comes from the one
routine in `colimits` that builds every map out of a colimit and
re-verifies its cocone.

Naming contract of `realize`: simplices of the base keep their names at
every stage, and the cells attached at stage ordinal s (1-based) by the
t-th attachment get names "c{s}_{t}_{w}" where w is the name of the
corresponding simplex of the standard cell being glued in.  Base objects
must not already use such names.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    _name_inclusion,
    _positional,
    _vertex_name,
    boundary,
    compose,
    identity,
    map_errors,
    simplex,
)
from ssetkit.colimits import StageRecord, _induced, sequential_colimit
from ssetkit.lifting import _check_label, generator


def _is_generator_source(source, kind, n, k):
    """Whether `source` is the source of the generator (kind, n, k).  The
    label rule of `lifting` refuses a bad label first (ValueError).  The
    boundary of the n-simplex has dimension n - 1 and 2^(n+1) - 2
    simplices, and a horn one fewer, so any other object is told apart
    before a generator as large as it is built; building the generator
    refuses impossible parameters (ValueError)."""
    _check_label(kind, n, k)
    return (source.dim == n - 1
            and source.size() == 2 ** (n + 1) - (2 if kind == "I" else 3)
            and source == generator(kind, n, k).source)


@dataclass(frozen=True)
class Attachment:
    """One cell attachment: a generator (boundary inclusion for kind "I",
    horn inclusion for kind "J") plus the attaching map of its source into
    the current stage, which must be a simplicial map (`map_errors`).  A
    label that `lifting` refuses (a kind other than "I" or "J", an n or k
    that is not an int, a k with "I" or no k with "J") is refused before any
    generator is built (ValueError)."""

    kind: str
    n: int
    k: object          # horn index for kind "J", None for kind "I"
    attaching: SimplicialMap

    def __post_init__(self):
        if not _is_generator_source(self.attaching.source, self.kind, self.n,
                                    self.k):
            raise ValueError("attachment: attaching map does not start at "
                             "the declared generator source")
        errors = map_errors(self.attaching)
        if errors:
            raise ValueError("attachment: attaching map is not simplicial: "
                             + "; ".join(errors))


@dataclass(frozen=True)
class CellPresentation:
    """A base object plus an ordered list of stages, each a tuple of
    attachments whose attaching maps land in the realization of all strictly
    earlier stages.

    A presentation carries its realization, the stage record plus stage
    data (`RealizeResult`): `PresentationBuilder.presentation` fills it in,
    and any other presentation is glued once, on first use.  The
    realization holds no reference back to the presentation."""

    base: object
    stages: tuple

    @cached_property
    def realization(self):
        return realize(self)

    def attachment_count(self):
        return sum(len(stage) for stage in self.stages)

    def kinds(self):
        return {att.kind for stage in self.stages for att in stage}


class StageData:
    """One closed stage: the inclusion of the previous stage, which keeps
    every name, and one characteristic map per attached cell."""

    def __init__(self, char_maps, inclusion):
        self.char_maps = list(char_maps)
        self.inclusion = inclusion

    def induced(self, cell_maps, from_c):
        """The unique map out of the stage that restricts to cell_maps[t]
        along the t-th characteristic map and to from_c along the
        inclusion.  Commutation of this cocone is a precondition and is
        re-verified on the result."""
        if (from_c.source != self.inclusion.source
                or len(cell_maps) != len(self.char_maps)
                or any(m.source != char.source
                       for char, m in zip(self.char_maps, cell_maps))):
            raise ValueError("induced: cocone does not match the stage")
        return _induced(self.inclusion.target,
                        [self.inclusion, *self.char_maps],
                        [from_c, *cell_maps], "induced")

    def _push(self, m):
        """m followed by the inclusion, `compose(inclusion, m)`, for a map m
        in normal form.  `_attach` builds every inclusion as a name
        inclusion, so this is m's image tuple read in the new stage: O(1)
        after the endpoint check, which raises compose's ValueError."""
        inc = self.inclusion
        if m.target != inc.source:
            raise ValueError("compose: target of first map != source of "
                             "second")
        return _positional(m.source, inc.target, m.img)


class RealizeResult(StageRecord):
    """Realization of a presentation: its stage record (whose birth function
    assigns every cell its presentation ordinal, and whose composite is the
    base-to-final inclusion) plus per-stage data.  It holds no reference
    back to the presentation."""

    def __init__(self, record, stage_data):
        super().__init__(record.objects, record.inclusions, record.birth)
        self.stage_data = list(stage_data)


def _attach(current, attachments, ordinal):
    """Glue one stage's worth of cells onto `current`, each along its
    generator's source.  Within each dimension, the positions of the
    standard cells come first (by attachment, then in simplex order): a new
    cell sits at its own position, a simplex of `current` at the least
    position its attaching maps send onto it, and the rest of `current`
    follows in its own order."""
    for t, att in enumerate(attachments):
        if att.attaching.target != current:
            raise ValueError(f"stage {ordinal}: attaching map {t} does not "
                             "land in the previous stage")
    by_dim = {}
    faces = {n: current.faces_of(n) for n in current.names()
             if current.dim_of(n) >= 1}
    position = {}
    char_images = []
    for t, att in enumerate(attachments):
        cell = simplex(att.n)
        placed = att.attaching.images
        images = {}
        for d in range(att.n + 1):
            for i, w in enumerate(cell.simplices(d)):
                if w in placed:
                    ref = placed[w]
                    if not current.has(ref.base):
                        raise ValueError(
                            f"stage {ordinal}: attaching map {t} sends {w} "
                            f"to {ref.base!r}, which is not a simplex of "
                            "the previous stage")
                else:
                    ref = SimplexRef(f"c{ordinal}_{t}_{w}")
                    if current.has(ref.base):
                        raise ValueError(
                            f"stage {ordinal}: attached-cell names collide "
                            "with existing simplices (rename the base away "
                            "from 'c<stage>_' prefixes)")
                    by_dim.setdefault(d, []).append(ref.base)
                    if d >= 1:
                        faces[ref.base] = tuple(images[u.base]
                                                for u in cell.faces_of(w))
                if not ref.word:
                    position.setdefault(ref.base, (t, i))
                images[w] = ref
        char_images.append(images)
    for d in range(current.dim + 1):
        for i, n in enumerate(current.simplices(d)):
            position.setdefault(n, (len(attachments), i))
            by_dim.setdefault(d, []).append(n)
    stage = FiniteSimplicialSet(
        {d: sorted(names, key=position.__getitem__)
         for d, names in by_dim.items()}, faces)
    chars = [SimplicialMap(simplex(att.n), stage, images)
             for att, images in zip(attachments, char_images)]
    return StageData(chars, _name_inclusion(current, stage))


def realize(presentation):
    """Realize a presentation stagewise; raises when some attaching map does
    not land in its stage.  Its attachments were checked when they were
    made, so they are glued on as they are."""
    builder = PresentationBuilder(presentation.base)
    for attachments in presentation.stages:
        builder._close(tuple(attachments))
    return builder.realized()


class PresentationBuilder:
    """Incremental construction of a presentation: queue attachments against
    the current realized stage, then close the stage to advance.  `realize`
    runs one over a whole presentation."""

    def __init__(self, base):
        self.base = base
        self.stage_data = []
        self._stages = []
        self._pending = []
        self._current = base

    @property
    def current(self):
        """The realized object that attaching maps of the open stage must
        target."""
        return self._current

    def attach(self, kind, n, k=None, attaching=None):
        if attaching is None:
            raise ValueError("attach: an attaching map is required")
        self._pending.append((kind, n, k, attaching))
        return self

    def close_stage(self):
        """Check the queued attachments (`Attachment`) and glue them on."""
        return self._close(tuple(Attachment(*args)
                                 for args in self._pending))

    def _close(self, attachments):
        stage = _attach(self._current, attachments, len(self._stages) + 1)
        self._stages.append(attachments)
        self._pending = []
        self.stage_data.append(stage)
        self._current = stage.inclusion.target
        return stage

    def presentation(self):
        """The presentation built so far, carrying its realization."""
        pres = CellPresentation(self.base, tuple(self._stages))
        pres.__dict__["realization"] = self.realized()
        return pres

    def realized(self):
        """The realization of the stages closed so far."""
        if self._pending:
            raise ValueError("presentation: close the open stage first")
        record = sequential_colimit([d.inclusion for d in self.stage_data],
                                    base=self.base)
        return RealizeResult(record, self.stage_data)


def factor_through_stage(realized, m):
    """Factor a map from a finite object into the final stage of a
    realization through the earliest possible stage.

    Returns (k, factored) where k is minimal such that every simplex in the
    image of m is born by stage k, and factored composes with the stage
    inclusions to recover m exactly."""
    if m.target != realized.final:
        raise ValueError("factor_through_stage: map does not land in the "
                         "final stage")
    birth = realized.birth
    k = max((birth[ref.base] for ref in m.img), default=0)
    comp = realized.composite_from(k)
    inverse = {ref.base: n for n, ref in zip(comp.source.names(), comp.img)}
    factored = _positional(m.source, comp.source, tuple(
        SimplexRef(inverse[ref.base], ref.word) for ref in m.img))
    if compose(comp, factored) != m:
        raise RuntimeError("factor_through_stage: recovery check failed")
    return k, factored


# ---------------------------------------------------------------------------
# Horn-to-boundary conversion

def _missing_face_attaching(att, h, target):
    """Attaching map of the horn's missing face into `target`: the boundary
    of the k-th face of the n-simplex lies inside the horn, so transport it
    through the original attaching map and the running isomorphism h."""
    face_verts = tuple(v for v in range(att.n + 1) if v != att.k)
    return SimplicialMap(boundary(att.n - 1), target, {
        _vertex_name(verts): h(att.attaching(SimplexRef(
            _vertex_name(tuple(face_verts[v] for v in verts)))))
        for size in range(1, att.n)
        for verts in combinations(range(att.n), size)})


def _top_cell_attaching(att, horn_to_mid, char_a):
    """Attaching map of the full boundary of the n-simplex once the missing
    face exists: horn simplices go through `horn_to_mid`, the missing face
    goes to the freshly attached cell."""
    n, k = att.n, att.k
    missing = _vertex_name(tuple(v for v in range(n + 1) if v != k))
    top_of_face = SimplexRef(_vertex_name(tuple(range(n))))
    return SimplicialMap(boundary(n), horn_to_mid.target, {
        **horn_to_mid.images, missing: char_a(top_of_face)})


def j_to_i_presentation(presentation):
    """Convert a presentation made of horn attachments into one made of
    boundary attachments: each horn cell becomes its missing face (attached
    along that face's boundary) followed by the full cell (attached along
    its entire boundary).  Each stage splits in two, so the attachment count
    exactly doubles.

    Returns the converted presentation, carrying its realization, together
    with the isomorphism from the realization of the input onto that of the
    output, over the common base.  Raises on mixed-kind input."""
    if presentation.kinds() - {"J"}:
        raise ValueError("j_to_i_presentation: presentation has non-horn "
                         "attachments")
    j_res = presentation.realization
    builder = PresentationBuilder(presentation.base)
    h = identity(presentation.base)

    for s, attachments in enumerate(presentation.stages):
        for att in attachments:
            builder.attach("I", att.n - 1,
                           attaching=_missing_face_attaching(
                               att, h, builder.current))
        stage_a = builder.close_stage()
        inc_a = stage_a.inclusion
        for t, att in enumerate(attachments):
            horn_to_mid = compose(inc_a, compose(h, att.attaching))
            builder.attach("I", att.n,
                           attaching=_top_cell_attaching(
                               att, horn_to_mid, stage_a.char_maps[t]))
        stage_b = builder.close_stage()

        # transport the isomorphism across this stage: the new cells of the
        # horn stage go to the corresponding boundary cells
        h = j_res.stage_data[s].induced(
            stage_b.char_maps,
            compose(stage_b.inclusion, compose(inc_a, h)))

    converted = builder.presentation()
    _check_iso(h)
    return converted, h


def _check_iso(h):
    """Verify that a map is an isomorphism: the map out of its target
    induced along it by the identity is a left inverse (`_induced` checks
    that), and it must be a right inverse too."""
    try:
        inv = _induced(h.target, [h], [identity(h.source)], "conversion")
        if compose(h, inv) == identity(h.target):
            return inv
    except ValueError:
        pass
    raise RuntimeError("conversion map is not an isomorphism")
