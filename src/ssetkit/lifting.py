"""Decidable lifting problems and transfer of lifts along retracts,
pushouts, coproducts, and stage compositions.

Lifts and squares come from the indexed search `core.extensions`.
`solve_lift` takes the first extension B -> X pinned on i(A) by the top
map and lying over the bottom map: the lexicographically least diagonal.
When there is none, the exhausted search is the certificate, counted in
refuted candidates.  `enumerate_squares` takes, for each top A -> X, the
extensions B -> Y pinned on i(A) by f . top: the bottoms closing a square,
searched once per distinct f . top.  `check_rlp` decides each generator
square of a map and keeps its diagonal; factorization reads it too.
"""

from dataclasses import dataclass, field

from ssetkit.core import (
    SimplicialMap,
    boundary_inclusion,
    compose,
    enumerate_maps,
    extensions,
    horn_inclusion,
    identity,
)
from ssetkit.colimits import coproduct, coproduct_induced, pushout_induced


class LiftTransferError(ValueError):
    """A lift-transfer operation could not run: an inner premise lift was
    missing or a supplied map failed its defining equations."""


@dataclass(frozen=True)
class LiftingProblem:
    """A commuting square: left i: A -> B, right f: X -> Y, top: A -> X,
    bottom: B -> Y with f . top = bottom . i."""

    left: SimplicialMap
    right: SimplicialMap
    top: SimplicialMap
    bottom: SimplicialMap

    def __post_init__(self):
        i, f, t, u = self.left, self.right, self.top, self.bottom
        if t.source != i.source or t.target != f.source:
            raise ValueError("lifting problem: top map endpoints do not fit")
        if u.source != i.target or u.target != f.target:
            raise ValueError("lifting problem: bottom map endpoints do not fit")
        if compose(f, t) != compose(u, i):
            raise ValueError("lifting problem: square does not commute")


@dataclass(frozen=True)
class Lift:
    """A diagonal B -> X solving a lifting problem."""

    diagonal: SimplicialMap


@dataclass(frozen=True)
class NoLift:
    """Certificate of nonexistence: the number of candidate partial
    assignments refuted by the exhaustive search."""

    refuted: int


def _restricts_to(w, i, top):
    """Whether w . i == top: w's images at the positions of i's when those
    are all nondegenerate, else (and to refuse bad input) the composite."""
    if i.target == w.source and not any(r.word for r in i.img):
        got = tuple([w.img[w.source._pos[r.base]] for r in i.img])
        if None not in got:
            return got == top.img and (w.target, i.source) == (
                top.target, top.source)
    return compose(w, i) == top


def verify_lift(problem, diagonal):
    """Both triangle equations, checked exactly."""
    return (_restricts_to(diagonal, problem.left, problem.top)
            and compose(problem.right, diagonal) == problem.bottom)


def _pins(i, wants):
    """Pins for `extensions` on maps h out of i.target with h . i = wants,
    where `wants` is a tuple of images in `i.source.names()` order: for the
    position of each generator u of i.target, the pairs (word, want) with
    i(a) = s_word u and wants(a) = want."""
    pins = {}
    for ref, want in zip(i.img, wants):
        pins.setdefault(i.target._pos[ref.base], []).append((ref.word, want))
    return pins


def solve_lift(problem):
    """Decide a lifting problem.  Returns the least diagonal in the
    lexicographic map order, or NoLift with search statistics."""
    i, f = problem.left, problem.right
    search = extensions(i.target, f.source, _pins(i, problem.top.img),
                        over=(f, problem.bottom))
    try:
        return Lift(next(search))
    except StopIteration as done:
        return NoLift(done.value)


def _commuting(i, f, top, bottom):
    """The square (i, f, top, bottom) without the checks of
    `LiftingProblem`, for a caller that has made them."""
    square = object.__new__(LiftingProblem)
    for name, value in zip(("left", "right", "top", "bottom"),
                           (i, f, top, bottom)):
        object.__setattr__(square, name, value)
    return square


def enumerate_squares(i, f):
    """All commuting squares with left leg i and right leg f, ordered by
    (top index, bottom index) in the hom-set enumerations.  The bottoms
    depend on a top only through f . top, so they are searched, and checked
    to commute, once per distinct f . top."""
    out = []
    bottoms = {}
    for top in enumerate_maps(i.source, f.source):
        wants = compose(f, top)
        found = bottoms.get(wants.img)
        if found is None:
            found = bottoms[wants.img] = tuple(
                extensions(i.target, f.target, _pins(i, wants.img)))
            for bottom in found:
                if not _restricts_to(bottom, i, wants):
                    raise ValueError("lifting problem: square does not "
                                     "commute")
        out.extend(_commuting(i, f, top, bottom) for bottom in found)
    return out


# ---------------------------------------------------------------------------
# Generator families and right-lifting-property reports

def _check_label(kind, k):
    """Refuse (ValueError) an unknown kind, or a k that does not fit it."""
    if kind not in ("I", "J"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind == "I" and k is not None:
        raise ValueError("boundary generator takes no k")
    if kind == "J" and k is None:
        raise ValueError("horn generator needs k")


def generator(kind, n, k=None):
    """The generating cofibration (kind "I": the boundary inclusion into
    the n-simplex) or trivial cofibration (kind "J": the inclusion of the
    (n,k)-horn) with the given parameters."""
    _check_label(kind, k)
    if kind == "I":
        return boundary_inclusion(n)
    return horn_inclusion(n, k)


def generator_family(kind, cap):
    """The boundary inclusions ("I", n <= cap) or horn inclusions
    ("J", 1 <= n <= cap, 0 <= k <= n), each with its label."""
    if kind not in ("I", "J"):
        raise ValueError(f"unknown generator family {kind!r}")
    if cap < 0:
        raise ValueError("dimension cap must be >= 0")
    labels = ([("I", n) for n in range(cap + 1)] if kind == "I" else
              [("J", n, k) for n in range(1, cap + 1) for k in range(n + 1)])
    return [(label, generator(*label)) for label in labels]


@dataclass(frozen=True)
class RLPReport:
    """Per-square diagonals of a map against a capped generator family: a
    lift, None where there is none, or False where the internal hook of
    `check_rlp` left the square undecided (no verdict, so not passed)."""

    kind: str
    cap: int
    entries: tuple = field(default=())  # (label, square, diagonal)

    @property
    def passed(self):
        return all(diagonal for _, _, diagonal in self.entries)

    def lines(self):
        out, counts = [], {}
        for label, _, diagonal in self.entries:
            idx = counts.get(label, 0)
            counts[label] = idx + 1
            gen = (f"gen={label[1]}" if label[0] == "I"
                   else f"gen={label[1]},{label[2]}")
            out.append(f"{gen} square#{idx} "
                       f"{'solved' if diagonal else 'unsolved'}")
        return out


def check_rlp(f, kind, cap, witness=None):
    """Solve every generator square against f, up to the dimension cap.
    A full pass against "J" is this library's notion of a fibration; a full
    pass against "I" certifies trivial-fibration behavior.  The internal
    hook `witness(label, square)` returns a diagonal to keep, None to search
    for the least lift, or False to leave the square undecided."""
    entries = []
    for label, gen in generator_family(kind, cap):
        for square in enumerate_squares(gen, f):
            diagonal = witness(label, square) if witness else None
            if diagonal is None:
                found = solve_lift(square)
                diagonal = found.diagonal if isinstance(found, Lift) else None
            entries.append((label, square, diagonal))
    return RLPReport(kind, cap, tuple(entries))


# ---------------------------------------------------------------------------
# Retract diagrams and the retract argument

@dataclass(frozen=True)
class RetractDiagram:
    """The six maps exhibiting i: A -> B as a retract of j: C -> D:
    horizontals A -> C -> A and B -> D -> B composing to identities, with
    verticals i, j, i making all squares commute."""

    i: SimplicialMap
    j: SimplicialMap
    a_in: SimplicialMap   # A -> C
    a_out: SimplicialMap  # C -> A
    b_in: SimplicialMap   # B -> D
    b_out: SimplicialMap  # D -> B

    def __post_init__(self):
        if compose(self.a_out, self.a_in) != identity(self.i.source):
            raise ValueError("retract diagram: top composite is not the identity")
        if compose(self.b_out, self.b_in) != identity(self.i.target):
            raise ValueError("retract diagram: bottom composite is not the identity")
        if compose(self.j, self.a_in) != compose(self.b_in, self.i):
            raise ValueError("retract diagram: left square does not commute")
        if compose(self.i, self.a_out) != compose(self.b_out, self.j):
            raise ValueError("retract diagram: right square does not commute")
        if compose(self.i, compose(self.a_out, self.a_in)) != \
                compose(compose(self.b_out, self.b_in), self.i):
            raise ValueError("retract diagram: outer square does not commute")


def lift_via_retract(diagram, problem):
    """Transfer a lift across a retract: solve the induced square for the
    middle map j and restrict along the retraction.

    `problem` is a square for diagram.i; the returned diagonal is verified
    against both of its triangles before being returned."""
    if problem.left != diagram.i:
        raise ValueError("lift_via_retract: problem is not a square for i")
    induced = LiftingProblem(
        diagram.j, problem.right,
        compose(problem.top, diagram.a_out),
        compose(problem.bottom, diagram.b_out))
    inner = solve_lift(induced)
    if not isinstance(inner, Lift):
        raise LiftTransferError("lift_via_retract: no lift for the induced "
                                "square of j")
    w = compose(inner.diagonal, diagram.b_in)
    if not verify_lift(problem, w):
        raise LiftTransferError("lift_via_retract: transferred map fails its "
                                "triangles")
    return Lift(w)


def lift_via_pushout(p, problem, w):
    """Transfer a lift across a pushout: `problem` is a square for the
    pushout leg j = p.leg_from_c, and `w` solves the composed square for the
    original map (w . i = top . g and right . w = bottom . leg_from_b).
    The induced map out of the corner is the transferred lift."""
    if problem.left != p.leg_from_c:
        raise ValueError("lift_via_pushout: problem is not a square for the "
                         "pushout leg")
    diag = w.diagonal if isinstance(w, Lift) else w
    try:
        g = pushout_induced(p, diag, problem.top)
    except ValueError as exc:
        raise LiftTransferError(f"lift_via_pushout: {exc}") from exc
    if not verify_lift(problem, g):
        raise LiftTransferError("lift_via_pushout: induced map fails its "
                                "triangles")
    return Lift(g)


def lift_via_coproduct(problems, lifts):
    """Assemble per-summand lifts into a lift for the coproduct square.
    All summand problems must share the same right map.  Returns the
    assembled problem together with its verified lift."""
    if not problems or len(problems) != len(lifts):
        raise LiftTransferError("lift_via_coproduct: need one lift per summand")
    f = problems[0].right
    if any(q.right != f for q in problems):
        raise LiftTransferError("lift_via_coproduct: summands disagree on the "
                                "right map")
    srcs, src_injs = coproduct([q.left.source for q in problems])
    tgts, tgt_injs = coproduct([q.left.target for q in problems])
    left = coproduct_induced(srcs, src_injs, [
        compose(inj, q.left) for inj, q in zip(tgt_injs, problems)])
    top = coproduct_induced(srcs, src_injs, [q.top for q in problems])
    bottom = coproduct_induced(tgts, tgt_injs, [q.bottom for q in problems])
    assembled = LiftingProblem(left, f, top, bottom)
    diag = coproduct_induced(
        tgts, tgt_injs,
        [w.diagonal if isinstance(w, Lift) else w for w in lifts])
    if not verify_lift(assembled, diag):
        raise LiftTransferError("lift_via_coproduct: assembled diagonal fails "
                                "its triangles")
    return assembled, Lift(diag)


def lift_via_composition(stages, problem):
    """Lift against a finite chain of inclusions, stage by stage.  `problem`
    must have the chain composite as its left map; each stage square is
    solved with the previous diagonal as its top.  Raises with the failing
    stage index when some stage is unsolvable."""
    if problem.left != stages.composite():
        raise ValueError("lift_via_composition: problem's left map is not the "
                         "chain composite")
    h = problem.top
    for k, inc in enumerate(stages.inclusions):
        rest = stages.composite_from(k + 1)
        stage_problem = LiftingProblem(inc, problem.right, h,
                                       compose(problem.bottom, rest))
        found = solve_lift(stage_problem)
        if not isinstance(found, Lift):
            raise LiftTransferError(f"lift_via_composition: stage {k} "
                                    "unsolvable")
        h = found.diagonal
    if not verify_lift(problem, h):
        raise LiftTransferError("lift_via_composition: assembled diagonal "
                                "fails its triangles")
    return Lift(h)


def retract_argument(g, i, p, q):
    """Given a factorization g = p . i and a diagonal q solving the square
    (left g, right p, top i, bottom identity), exhibit g as a retract of i.
    Raises when q fails its defining equations."""
    diag = q.diagonal if isinstance(q, Lift) else q
    if compose(p, i) != g:
        raise ValueError("retract_argument: g != p . i")
    if compose(diag, g) != i or compose(p, diag) != identity(g.target):
        raise LiftTransferError("retract_argument: q fails its defining "
                                "equations")
    return RetractDiagram(
        i=g, j=i,
        a_in=identity(g.source), a_out=identity(g.source),
        b_in=diag, b_out=p)
