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

Rounds are semi-naive.  Each round is one `check_rlp` against the current
factor, whose witness hook gives a square at round k >= 1 the witness of
the previous round's square with the same (generator, top, bottom) key, so
no square whose top lies in the previous stage is searched again.  Each
witness is a diagonal: the lift found or carried over, or the
characteristic map of the square's cell.  Every stage keeps the names of
the one before, so a carried witness is pushed into the next stage by name
(`StageData._push`), and a top seen at an earlier round takes the bottoms
found for it then from a table kept for the run: p_{k+1} restricts to p_k,
so p_{k+1} . top = p_k . top.

The verifier has one rule for every stage: a witness that passes
`verify_lift` settles its square; one without a witness, or with a wrong
one, is searched.  Once it has checked that each stage sits in the next by
name over the same projection (`_stable`), it pushes tops by name and
verifies each witness once: a later square with the generator, top, bottom
and witness images of one that passed is settled.  Its final pass is
`check_rlp` on the right factor with the recorded witnesses, which
enumerates the final squares afresh and never sees the run's table of
bottoms, so completeness never rests on the producer (the
certifying-algorithm pattern: the checker checks certificates and never
trusts the producer's verdicts).  `verify_factorization` is the verifier's
one entry point: its residual, early-top and lifting-property checks all
read that single pass.
"""

from itertools import count

from ssetkit.core import SimplexRef, ValidationReport, compose
from ssetkit.cells import PresentationBuilder, realize
from ssetkit.lifting import (
    Lift,
    _commuting,
    check_rlp,
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
    of the recorded cell presentation, which carries that realization, and
    right the final projection.  `residual` lists the squares still
    unlifted when the run stopped; it is empty on every converged run."""

    def __init__(self, f, kind, cap, mode, budget, left, right,
                 presentation, stages, residual, converged):
        self.f = f
        self.kind = kind
        self.cap = cap
        self.mode = mode
        self.budget = budget
        self.left = left
        self.right = right
        self.presentation = presentation
        self.stages = stages
        self.residual = residual
        self.converged = converged

    @property
    def realization(self):
        return self.presentation.realization

    @property
    def stages_run(self):
        return len(self.stages)

    @property
    def middle(self):
        return self.left.target


def _witness_index(stage):
    """The stage's witnesses by (label, top, bottom) key."""
    return {(label, sq.top.img, sq.bottom.img): w
            for (label, sq), w in zip(stage.squares, stage.witnesses)}


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
    builder = PresentationBuilder(f.source)
    p_k = f
    stages = []
    carried = {}    # per label, each top seen so far: its bottoms

    while True:
        last = len(stages) >= budget
        previous = _witness_index(stages[-1]) if stages else {}

        def witness(label, sq):
            if mode == "faithful" and not last:
                return False    # every square gets a cell, its witness
            return previous.get((label, sq.top.img, sq.bottom.img))

        entries = check_rlp(p_k, kind, cap, witness, carried).entries
        squares = [(label, sq) for label, sq, _ in entries]
        diagonals = [d for _, _, d in entries]
        unlifted = [idx for idx, d in enumerate(diagonals) if d is None]
        pending = (list(range(len(squares))) if mode == "faithful"
                   else unlifted)
        if not pending or last:
            stages.append(FactorStage(p_k, squares, [], diagonals))
            converged = not pending
            residual = [squares[idx] for idx in unlifted]
            break

        for idx in pending:
            label, sq = squares[idx]
            builder.attach(*label, attaching=sq.top)
        stage = builder.close_stage()
        chars = dict(zip(pending, stage.char_maps))
        witnesses = [chars[idx] if idx in chars else stage._push(d)
                     for idx, d in enumerate(diagonals)]
        stages.append(FactorStage(p_k, squares, pending, witnesses))
        p_k = stage.induced([squares[idx][1].bottom for idx in pending], p_k)

    presentation = builder.presentation()
    return FactorizationResult(
        f=f, kind=kind, cap=cap, mode=mode, budget=budget,
        left=presentation.realization.composite(), right=p_k,
        presentation=presentation, stages=stages,
        residual=residual, converged=converged)


# ---------------------------------------------------------------------------
# Verification

def _stable(result):
    """Whether each stage sits in the next by name, with p_{k+1} . inclusion
    == p_k, and the right factor is the last projection.  Then a witness
    that lifts a square at one stage lifts every later square with the same
    generator and the same top, bottom and witness images: each of them is
    read by name, and the projections agree on the names they share.
    Endpoints are compared first, so a result that does not fit gives
    False, never an exception."""
    stages, data = result.stages, result.realization.stage_data
    if len(data) < len(stages) - 1 or result.right != stages[-1].p:
        return False
    for stage, after, closed in zip(stages, stages[1:], data):
        inc, p, p_next = closed.inclusion, stage.p, after.p
        if (inc.source, inc.target, p.target) != \
                (p.source, p_next.source, p_next.target):
            return False
        names, pos = tuple(inc.source.names()), inc.target._pos
        if inc.img != tuple(map(SimplexRef, names)) or \
                not all(n in pos for n in names):
            return False
        if tuple([p_next.img[pos[n]] for n in names]) != p.img:
            return False
    return True


def _checks(result):
    """The verifier's one pass.  A square of a stage followed by an
    attachment round must lift through the next stage; the final squares
    are `check_rlp`'s against the right factor, with the recorded
    witnesses.  A square whose witness is a lift is settled; one with no
    witness, or a wrong one, is searched.  Returns the (stage, square index)
    pairs with a wrong witness and those that do not lift, and the final
    entries (label, square, diagonal or None).

    On a run whose stages pass `_stable`, tops are pushed by name and each
    witness is verified once: a later square with the key of one that
    passed `verify_lift` is settled once its endpoints fit.  Otherwise
    every witness is verified and every top pushed by `compose`."""
    stages, last = result.stages, len(result.stages) - 1
    wrong, failures, position = [], [], count()
    # (generator, top, bottom, witness) images of the witnesses that passed
    passed = set() if last > 0 and _stable(result) else None

    def lifts(sq, w):
        if passed is None:
            return verify_lift(sq, w)
        i, right = sq.left, sq.right
        key = (i, sq.top.img, sq.bottom.img, w.img)
        if key in passed and (sq.top.source, sq.top.target, sq.bottom.source,
                              sq.bottom.target) == (i.source, right.source,
                                                    i.target, right.target):
            return True
        if verify_lift(sq, w):
            passed.add(key)
            return True
        return False

    def checked(k, idx, sq, w):
        # w if it lifts sq, else None; a w that does not is wrong
        if w is None or (w.source == sq.left.target and w.target ==
                         sq.right.source and lifts(sq, w)):
            return w
        wrong.append((k, idx))
        return None

    for k, stage in enumerate(stages[:-1]):
        closed = result.realization.stage_data[k]
        for idx, ((_, sq), w) in enumerate(zip(stage.squares,
                                               stage.witnesses)):
            top = (compose(closed.inclusion, sq.top) if passed is None
                   else closed._push(sq.top))
            # a lift makes the pushed square commute, so it needs no check
            pushed = _commuting(sq.left, stages[k + 1].p, top, sq.bottom)
            # a pushed square that does not commute has no lift
            if checked(k, idx, pushed, w) is None and \
                    not isinstance(solve_lift(pushed), Lift):
                failures.append((k, idx))
    index = _witness_index(stages[-1]) if stages else {}

    def recorded(label, sq):
        return checked(last, next(position), sq,
                       index.get((label, sq.top.img, sq.bottom.img)))

    report = check_rlp(result.right, result.kind, result.cap, recorded)
    return wrong, failures, report.entries


def verify_factorization(result):
    """Re-check a factorization from scratch: composite equality, agreement
    of the recorded presentation with the left factor, residual accuracy,
    the witness and solvability of every square of every stage (each must
    lift through the next stage: the heart of the construction), the
    early-top solvability of the final stage (a final square whose top lies
    in the stage before last was covered at the last attachment round: the
    finiteness step that lets a capped run certify anything), and (when the
    residual is empty) the full lifting property of the right factor at the
    run's cap.  The last four read one pass (`_checks`), which searches only
    squares without a valid witness and ends with `check_rlp` against the
    right factor, given the recorded witnesses.  Returns a
    `ValidationReport`."""
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
    unsolved = [(label, sq) for label, sq, d in final if d is None]
    if unsolved != list(r.residual):
        issues.append("residual: recorded residual does not match re-solve")

    last = len(r.stages) - 1
    issues += [f"stage {k}: square #{idx} has a witness that is not a lift "
               "through the next stage" for k, idx in wrong if k < last]
    issues += [f"stage {k}: square #{idx} does not lift through the next "
               "stage" for k, idx in failures]
    issues += [f"final stage: square #{idx} has a witness that is not a "
               "lift" for k, idx in wrong if k == last]
    if len(r.stages) > 1:
        before = r.stages[-2].w
        early = [idx for idx, (_, sq, d) in enumerate(final) if d is None
                 and all(before.has(ref.base) for ref in sq.top.img)]
        issues += [f"final stage: square #{idx} has an early-born top but "
                   "no lift" for idx in early]

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
