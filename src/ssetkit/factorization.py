"""Staged factorization of a map against a capped generator family: the
small object argument at desk scale.

Each round enumerates every commuting square from a generator into the
current factor, attaches one cell per square needing attention (all squares
in faithful mode, only unlifted squares in reduced mode), and extends the
projection to the new stage by sending each cell along its square's bottom
map (`StageData.induced`).  Faithful mode reproduces the classical
construction exactly and is the mode under which the construction is
functorial; it rarely terminates, so it is used with small stage budgets.
Reduced mode attaches only what is needed and converges on many desk-scale
inputs; a converged run certifies the right factor's lifting property
directly.

Rounds are semi-naive: a square at round k >= 1 whose top lies in the
stage the previous round ran against (a name-set test, since stages keep
their names) restricts to a square of that round, which was lifted or got
a cell, so it is not searched again.  Each round records one witness per
square, a diagonal: the lift found, the one carried over, or the
characteristic map of the cell attached for it.  The verifier has one rule
for every stage: a witness that passes `verify_lift` settles its square,
and only a square without one, or with a wrong one, is searched.  It
enumerates the final squares afresh, so completeness never rests on the
producer (the certifying-algorithm pattern: the checker checks
certificates and never trusts the producer's verdicts).
"""

from ssetkit.core import ValidationReport, compose
from ssetkit.cells import PresentationBuilder, realize
from ssetkit.lifting import (
    Lift,
    LiftingProblem,
    _commuting,
    enumerate_squares,
    generator_family,
    solve_lift,
    verify_lift,
)


class FactorStage:
    """One enumeration round: the projection it ran against, the squares
    found (in canonical (generator, top, bottom) order), the indices of
    those that received a cell, and one witness per square.

    A witness is a diagonal for its square, or None for a square left
    unlifted.  After a round that attached cells it lands in the next stage
    and solves the square with its top pushed along the inclusion; at the
    last round it lands in this stage.  Without witnesses all are None."""

    def __init__(self, p, squares, attached, witnesses=None):
        self.p = p
        self.squares = squares
        self.attached = list(attached)
        self.witnesses = (list(witnesses) if witnesses is not None
                          else [None] * len(squares))
        if len(self.witnesses) != len(squares):
            raise ValueError("FactorStage: one witness per square")

    @property
    def w(self):
        """The stage object: the projection's source."""
        return self.p.source


class FactorizationResult:
    """Outcome of `factorize`: f = right . left with left the realization
    of the recorded cell presentation and right the final projection.
    `residual` lists the squares still unlifted when the run stopped; it is
    empty on every converged run."""

    def __init__(self, f, kind, cap, mode, budget, left, right,
                 realization, stages, residual, converged):
        self.f = f
        self.kind = kind
        self.cap = cap
        self.mode = mode
        self.budget = budget
        self.left = left
        self.right = right
        self.realization = realization
        self.stages = stages
        self.residual = residual
        self.converged = converged

    @property
    def presentation(self):
        return self.realization.presentation

    @property
    def stages_run(self):
        return len(self.stages)

    @property
    def middle(self):
        return self.left.target


def _key(m):
    return tuple(m.images[n] for n in m.source.names())


def _early(sq, stage):
    """Whether the square's top lies in the stage `stage` ran against."""
    return all(stage.w.has(ref.base) for ref in sq.top.images.values())


def _witness_index(stage):
    """The stage's witnesses by (label, top, bottom) key."""
    return {(label, _key(sq.top), _key(sq.bottom)): w
            for (label, sq), w in zip(stage.squares, stage.witnesses)}


def _diagonals(squares, prev):
    """A diagonal for each square, or None where none exists.  A square
    whose top lies in the stage of the previous round `prev` takes that
    round's witness; the rest are searched."""
    carried = _witness_index(prev) if prev is not None else None
    out = []
    for label, sq in squares:
        if carried is not None and _early(sq, prev):
            out.append(carried[(label, _key(sq.top), _key(sq.bottom))])
        else:
            found = solve_lift(sq)
            out.append(found.diagonal if isinstance(found, Lift) else None)
    return out


def factorize(f, kind, cap=3, mode="reduced", budget=5):
    """Factor f: X -> Y as (relative cell complex) followed by (map with the
    right lifting property against the capped generators), by iterated
    pushouts of coproducts of generator cells.

    Stops when a round finds no square needing a cell (converged) or when
    `budget` attachment rounds have run (residual reported, never silent)."""
    if mode not in ("faithful", "reduced"):
        raise ValueError(f"unknown mode {mode!r}")
    if budget < 0:
        raise ValueError("stage budget must be >= 0")
    gens = generator_family(kind, cap)
    builder = PresentationBuilder(f.source)
    p_k = f
    stages = []
    residual = []

    while True:
        squares = [(label, sq) for label, gen in gens
                   for sq in enumerate_squares(gen, p_k)]
        last = len(stages) >= budget
        if mode == "faithful" and squares and not last:
            # every square gets a cell, which is its witness
            diagonals = [None] * len(squares)
        else:
            diagonals = _diagonals(squares, stages[-1] if stages else None)
        unlifted = [idx for idx, d in enumerate(diagonals) if d is None]
        pending = (list(range(len(squares))) if mode == "faithful"
                   else unlifted)
        if not pending or last:
            stages.append(FactorStage(p_k, squares, [], diagonals))
            converged = not pending
            if not converged:
                residual = [squares[idx] for idx in unlifted]
            break

        for idx in pending:
            label, sq = squares[idx]
            builder.attach(*label, attaching=sq.top)
        stage = builder.close_stage()
        witnesses = [d if d is None else compose(stage.inclusion, d)
                     for d in diagonals]
        for idx, char in zip(pending, stage.char_maps):
            witnesses[idx] = char
        stages.append(FactorStage(p_k, squares, pending, witnesses))
        p_k = stage.induced([squares[idx][1].bottom for idx in pending], p_k)

    realization = builder.realized()
    return FactorizationResult(
        f=f, kind=kind, cap=cap, mode=mode, budget=budget,
        left=realization.composite(), right=p_k,
        realization=realization, stages=stages,
        residual=residual, converged=converged)


# ---------------------------------------------------------------------------
# Verification

def _checks(result):
    """The verifier's one pass.  A square of a stage followed by an
    attachment round must lift through the next stage; the final squares
    are enumerated afresh against the right factor.  A square whose witness
    is a lift is settled; one with no witness, or a wrong one, is searched.
    Returns the (stage, square index) pairs with a wrong witness and those
    that do not lift, and each final square with whether it lifts."""
    stages, last = result.stages, len(result.stages) - 1
    wrong, failures, final = [], [], []

    def lifts(k, idx, sq, w):
        if (w is not None and w.source == sq.left.target
                and w.target == sq.right.source and verify_lift(sq, w)):
            return True
        if w is not None:
            wrong.append((k, idx))
        if k < last:
            # a pushed square is checked before it is searched
            sq = LiftingProblem(sq.left, sq.right, sq.top, sq.bottom)
        return isinstance(solve_lift(sq), Lift)

    for k, stage in enumerate(stages[:-1]):
        inc = result.realization.stage_data[k].inclusion
        for idx, ((_, sq), w) in enumerate(zip(stage.squares,
                                               stage.witnesses)):
            # a lift makes the pushed square commute, so it needs no check
            pushed = _commuting(sq.left, stages[k + 1].p,
                                compose(inc, sq.top), sq.bottom)
            if not lifts(k, idx, pushed, w):
                failures.append((k, idx))
    index = _witness_index(stages[-1]) if stages else {}
    for label, gen in generator_family(result.kind, result.cap):
        for sq in enumerate_squares(gen, result.right):
            w = index.get((label, _key(sq.top), _key(sq.bottom)))
            final.append((label, sq, lifts(last, len(final), sq, w)))
    return wrong, failures, final


def stage_solvability_failures(result):
    """The heart of the construction: every square of a stage followed by
    an attachment round lifts through the next stage.  Returns the (stage,
    square index) pairs where this fails."""
    return _checks(result)[1]


def _early_top(result, final):
    return [idx for idx, (_, sq, solved) in enumerate(final)
            if not solved and len(result.stages) > 1
            and _early(sq, result.stages[-2])]


def early_top_failures(result):
    """Squares at the final stage whose top factors through a stage strictly
    below the last attachment round must be solvable: their restriction was
    enumerated back then and a cell (or an existing lift) covers it.  This is
    the finiteness step that lets capped runs certify anything at all."""
    return _early_top(result, _checks(result)[2])


def verify_factorization(result):
    """Re-check a factorization from scratch: composite equality, agreement
    of the recorded presentation with the left factor, residual accuracy,
    the witness and solvability of every square of every stage, the
    early-top solvability of the final stage, and (when the residual is
    empty) the full lifting property of the right factor at the run's cap.
    The last four read one pass (`_checks`): it searches only squares
    without a valid witness, and enumerates afresh the final squares, which
    `check_rlp` would enumerate.  Returns a `ValidationReport` of issues."""
    issues = []
    r = result
    if compose(r.right, r.left) != r.f:
        issues.append("composite: right . left != input map")

    fresh = realize(r.presentation)
    if fresh.composite() != r.left:
        issues.append("presentation: realization composite differs from left")
    if fresh.final != r.middle:
        issues.append("presentation: realized object differs from middle")

    if r.mode == "faithful":
        issues += [f"stage {k}: faithful mode must attach one cell per "
                   "square" for k, stage in enumerate(r.stages[:-1])
                   if len(stage.attached) != len(stage.squares)]

    wrong, failures, final = _checks(r)
    unsolved = [(label, sq) for label, sq, solved in final if not solved]
    if unsolved != list(r.residual):
        issues.append("residual: recorded residual does not match re-solve")

    last = len(r.stages) - 1
    issues += [f"stage {k}: square #{idx} has a witness that is not a lift "
               "through the next stage" for k, idx in wrong if k < last]
    issues += [f"stage {k}: square #{idx} does not lift through the next "
               "stage" for k, idx in failures]
    issues += [f"final stage: square #{idx} has a witness that is not a "
               "lift" for k, idx in wrong if k == last]
    issues += [f"final stage: square #{idx} has an early-born top but no "
               "lift" for idx in _early_top(r, final)]

    if not r.residual and unsolved:
        issues.append("rlp: converged run's right factor fails check_rlp")
    return ValidationReport(issues)


# ---------------------------------------------------------------------------
# Functoriality of the faithful construction

def induced_factorization_map(u, v, r, r2):
    """Given a square (u, v) from r.f to r2.f (v . f = f' . u) and faithful
    runs of both, build the stagewise maps W_k -> W'_k: the cell attached
    for a square goes to the cell attached for the composed square.

    Reduced mode breaks this recipe (the composed square may have attached
    no cell) and is refused."""
    if r.mode != "faithful" or r2.mode != "faithful":
        raise ValueError("induced_factorization_map: both runs must be "
                         "faithful")
    if (r.kind, r.cap) != (r2.kind, r2.cap):
        raise ValueError("induced_factorization_map: generator family or "
                         "cap mismatch")
    if compose(v, r.f) != compose(r2.f, u):
        raise ValueError("induced_factorization_map: input square does not "
                         "commute")

    closed = len(r.realization.stage_data)
    closed2 = len(r2.realization.stage_data)
    maps = [u]
    h = u
    for k in range(max(closed, closed2)):
        if k >= closed:
            # first run already stabilized: pad with identity stages
            h = compose(r2.realization.stage_data[k].inclusion, h)
            maps.append(h)
            continue
        if k >= closed2:
            raise ValueError("induced_factorization_map: second run stopped "
                             "before the first; rerun with a larger budget")
        stage = r.realization.stage_data[k]
        stage2 = r2.realization.stage_data[k]
        lookup = {(label2, sq2.top, sq2.bottom): t2
                  for t2, (label2, sq2) in enumerate(r2.stages[k].squares)}
        cell_maps = []
        for label, sq in r.stages[k].squares:
            key = (label, compose(h, sq.top), compose(v, sq.bottom))
            t2 = lookup.get(key)
            if t2 is None:
                raise RuntimeError("induced_factorization_map: composed "
                                   "square has no cell in the second run")
            cell_maps.append(stage2.char_maps[t2])
        h = stage.induced(cell_maps, compose(stage2.inclusion, h))
        maps.append(h)

    _check_stagewise(maps, v, r, r2)
    return maps


def _check_stagewise(maps, v, r, r2):
    for k, h in enumerate(maps):
        p_k = r.stages[k].p if k < len(r.stages) else r.stages[-1].p
        p2_k = r2.stages[k].p if k < len(r2.stages) else r2.stages[-1].p
        if compose(p2_k, h) != compose(v, p_k):
            raise RuntimeError(f"induced_factorization_map: stage {k} does "
                               "not commute with the projections")
