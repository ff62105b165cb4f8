"""The factorization and verifier that semi-naive rounds and witness checks
replaced, kept as the test oracle.

`factorize` and `verify_factorization` are the earlier library code,
unchanged: reduced mode solves every square of every round,
`stage_solvability_failures` searches every square of every stage again,
and the verifier enumerates the final squares for the residual, solves the
early-born ones again in `early_top_failures` (finding their stage with
`factor_through_stage`) and enumerates them a third time in `check_rlp`.
`RLPReport` and `check_rlp` are copies of the earlier library code too, so
that this verifier does not move with the code it checks.
"""
from dataclasses import dataclass, field

from ssetkit.core import compose
from ssetkit.cells import PresentationBuilder
from ssetkit.lifting import (
    Lift,
    LiftingProblem,
    enumerate_squares,
    generator_family,
    solve_lift,
)


@dataclass(frozen=True)
class RLPReport:
    """Per-square solvability of a map against a capped generator family."""

    kind: str
    cap: int
    entries: tuple = field(default=())  # (label, square index, solved)

    @property
    def passed(self):
        return all(solved for _, _, solved in self.entries)

    def lines(self):
        out = []
        for label, idx, solved in self.entries:
            gen = (f"gen={label[1]}" if label[0] == "I"
                   else f"gen={label[1]},{label[2]}")
            out.append(f"{gen} square#{idx} "
                       f"{'solved' if solved else 'unsolved'}")
        return out


def check_rlp(f, kind, cap):
    """Solve every generator square against f, up to the dimension cap.
    A full pass against "J" is this library's notion of a fibration; a full
    pass against "I" certifies trivial-fibration behavior."""
    entries = []
    for label, gen in generator_family(kind, cap):
        for idx, square in enumerate(enumerate_squares(gen, f)):
            solved = isinstance(solve_lift(square), Lift)
            entries.append((label, idx, solved))
    return RLPReport(kind, cap, tuple(entries))


class FactorStage:
    """One enumeration round: the object and projection it ran against, the
    squares found (in canonical (generator, top, bottom) order), and the
    indices of those that received a cell."""

    def __init__(self, w, p, squares, attached):
        self.w = w
        self.p = p
        self.squares = squares
        self.attached = list(attached)


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


def _attach_label(kind, label):
    n = label[1]
    k = label[2] if kind == "J" else None
    return n, k


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
    rounds = 0
    converged = False
    residual = []

    while True:
        w_k = builder.current
        squares = [(label, sq) for label, gen in gens
                   for sq in enumerate_squares(gen, p_k)]
        if mode == "faithful":
            pending = list(range(len(squares)))
        else:
            pending = [idx for idx, (_, sq) in enumerate(squares)
                       if not isinstance(solve_lift(sq), Lift)]
        if not pending:
            stages.append(FactorStage(w_k, p_k, squares, []))
            converged = True
            break
        if rounds >= budget:
            stages.append(FactorStage(w_k, p_k, squares, []))
            if mode == "reduced":
                residual = [squares[idx] for idx in pending]
            else:
                residual = [(label, sq) for label, sq in squares
                            if not isinstance(solve_lift(sq), Lift)]
            break

        for idx in pending:
            label, sq = squares[idx]
            n, kk = _attach_label(kind, label)
            builder.attach(kind, n, kk, attaching=sq.top)
        stage = builder.close_stage()
        stages.append(FactorStage(w_k, p_k, squares, pending))

        p_k = stage.induced([squares[idx][1].bottom for idx in pending], p_k)
        rounds += 1

    presentation = builder.presentation()
    return FactorizationResult(
        f=f, kind=kind, cap=cap, mode=mode, budget=budget,
        left=presentation.realization.composite(), right=p_k,
        presentation=presentation, stages=stages,
        residual=residual, converged=converged)


# ---------------------------------------------------------------------------
# Verification

class VerificationReport:
    def __init__(self, issues):
        self.issues = list(issues)

    @property
    def ok(self):
        return not self.issues

    def __str__(self):
        return "all checks passed" if self.ok else "\n".join(self.issues)


def stage_solvability_failures(result):
    """The heart of the construction: every square enumerated at a stage
    that was followed by an attachment round must lift through the next
    stage.  Returns the (stage, square index) pairs where this fails."""
    failures = []
    for k in range(len(result.stages) - 1):
        inc = result.realization.stage_data[k].inclusion
        next_p = result.stages[k + 1].p
        for idx, (label, sq) in enumerate(result.stages[k].squares):
            through = LiftingProblem(sq.left, next_p,
                                     compose(inc, sq.top), sq.bottom)
            if not isinstance(solve_lift(through), Lift):
                failures.append((k, idx))
    return failures


def early_top_failures(result):
    """Squares at the final stage whose top factors through a stage strictly
    below the last attachment round must be solvable: their restriction was
    enumerated back then and a cell (or an existing lift) covers it.  This is
    the finiteness step that lets capped runs certify anything at all."""
    from ssetkit.cells import factor_through_stage

    record = result.realization
    failures = []
    for idx, (_, sq) in enumerate(result.stages[-1].squares):
        born, _ = factor_through_stage(record, sq.top)
        if born < result.stages_run - 1 and \
                not isinstance(solve_lift(sq), Lift):
            failures.append(idx)
    return failures


def verify_factorization(result):
    """Re-check a factorization from scratch: composite equality, agreement
    of the recorded presentation with the left factor, residual accuracy,
    stage solvability, the early-top solvability of the final stage, and
    (when the residual is empty) the full lifting property of the right
    factor at the run's cap."""
    from ssetkit.cells import realize

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
        for k, stage in enumerate(r.stages[:-1]):
            if len(stage.attached) != len(stage.squares):
                issues.append(f"stage {k}: faithful mode must attach one "
                              "cell per square")

    final_squares = [(label, sq) for label, gen in
                     generator_family(r.kind, r.cap)
                     for sq in enumerate_squares(gen, r.right)]
    unsolved = [(label, sq) for label, sq in final_squares
                if not isinstance(solve_lift(sq), Lift)]
    if unsolved != list(r.residual):
        issues.append("residual: recorded residual does not match re-solve")

    for k, idx in stage_solvability_failures(r):
        issues.append(f"stage {k}: square #{idx} does not lift through the "
                      "next stage")

    for idx in early_top_failures(r):
        issues.append(f"final stage: square #{idx} has an early-born top "
                      "but no lift")

    if not r.residual and not check_rlp(r.right, r.kind, r.cap).passed:
        issues.append("rlp: converged run's right factor fails check_rlp")
    return VerificationReport(issues)
