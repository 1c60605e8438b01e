"""Confidence-independent global assignment of predictions to ground truth.

A cost matrix of ``1 - IoU`` entries (gated by an IoU threshold and a
category-compatibility policy) is solved for the global minimum-cost
one-to-one assignment. Accepted matches are true positives; everything
else is booked as FP/FN following three cases: a rejected assigned pair
counts one FP and one FN, an unassignable prediction one FP, an unmatched
ground truth one FN. Confidences never enter the computation, so the
outcome is invariant under any rescaling or reordering of scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from odfault.geometry import Detection, _ious

__all__ = [
    "CategoryPolicy",
    "MatchOutcome",
    "build_cost_matrix",
    "assign",
    "fp_type_breakdown",
    "DEFAULT_IOU_THRESHOLD",
]

DEFAULT_IOU_THRESHOLD = 0.5


@dataclass(frozen=True)
class CategoryPolicy:
    """How strictly predicted categories must match ground truth.

    ``strict`` requires identical labels, ``clusters`` accepts labels from
    the same compatibility group (labels absent from every group are their
    own singleton), ``none`` ignores categories entirely.
    """

    mode: str = "strict"
    clusters: tuple[frozenset[int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.mode not in ("strict", "clusters", "none"):
            raise ValueError(f"unknown category policy mode {self.mode!r}")
        seen: set[int] = set()
        for group in self.clusters:
            overlap = seen & set(group)
            if overlap:
                raise ValueError(f"categories {sorted(overlap)} appear in more than one cluster")
            seen |= set(group)

    @classmethod
    def strict(cls) -> "CategoryPolicy":
        return cls("strict")

    @classmethod
    def none(cls) -> "CategoryPolicy":
        return cls("none")

    @classmethod
    def from_clusters(cls, groups) -> "CategoryPolicy":
        return cls("clusters", tuple(frozenset(g) for g in groups))

    def compatible(self, a: int, b: int) -> bool:
        if self.mode == "none":
            return True
        if self.mode == "strict" or a == b:
            return a == b
        for group in self.clusters:
            if a in group:
                return b in group
        return False


@dataclass(frozen=True, slots=True)
class MatchOutcome:
    """Per-image TP/FP/FN counts plus the accepted (pred, gt, iou) pairs."""

    tp: int
    fp: int
    fn: int
    pairs: tuple[tuple[int, int, float], ...]


def build_cost_matrix(
    preds: list[Detection],
    gts: list[Detection],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    policy: CategoryPolicy = CategoryPolicy.strict(),
) -> list[list[float]]:
    """Cost matrix for the assignment: ``1 - IoU`` or a finite sentinel.

    A pair costs ``1 - IoU`` when the IoU reaches the threshold and the
    categories are compatible under the policy; otherwise it gets a
    sentinel strictly larger than any achievable sum of real costs, so the
    solver stays total without infinities.
    """
    return _cost_matrix(preds, gts, iou_threshold, policy)[0]


def _cost_matrix(preds, gts, iou_threshold, policy):
    """``build_cost_matrix`` plus its real-cost cells as ``(pred, gt, IoU)``
    in row order."""
    sentinel = _sentinel(preds)
    matrix, real = [], []
    gt_boxes = [g.box for g in gts]
    for r, p in enumerate(preds):
        row = []
        for c, (g, overlap) in enumerate(zip(gts, _ious(p.box, gt_boxes))):
            if overlap >= iou_threshold and policy.compatible(p.category, g.category):
                row.append(1.0 - overlap)
                real.append((r, c, overlap))
            else:
                row.append(sentinel)
        matrix.append(row)
    return matrix, real


def _sentinel(preds) -> float:
    return float(len(preds)) * 1.0 + 1.0


def assign(
    preds: list[Detection],
    gts: list[Detection],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    policy: CategoryPolicy = CategoryPolicy.strict(),
) -> MatchOutcome:
    """Globally optimal assignment and TP/FP/FN bookkeeping for one image."""
    if not preds or not gts:
        return MatchOutcome(tp=0, fp=len(preds), fn=len(gts), pairs=())

    matrix, pairs = _cost_matrix(preds, gts, iou_threshold, policy)
    if len(pairs) != len({r for r, _, _ in pairs}) or len(pairs) != len({c for _, c, _ in pairs}):
        # Some prediction or ground truth has two real candidates: solve.
        # Otherwise the real cells are the answer: the sentinel forces the
        # optimum to hold every one of them, and a tie swap that moved one
        # would need two sentinel cells to cost the same as a real pair.
        overlaps = {(r, c): overlap for r, c, overlap in pairs}
        pairs = [(r, c, overlaps[r, c])
                 for r, c in _canonicalize_ties(matrix, sorted(_solve_lsap(matrix)))
                 if (r, c) in overlaps]
    tp = len(pairs)
    return MatchOutcome(tp=tp, fp=len(preds) - tp, fn=len(gts) - tp, pairs=tuple(pairs))


def _canonicalize_ties(matrix, assigned):
    """Prefer lower prediction/gt indices among equal-cost assignments.

    Pairwise swaps that keep the total cost bit-identical are applied until
    a fixpoint, which makes solver tie-breaking deterministic for golden
    tests.
    """
    assigned = list(assigned)
    changed = True
    while changed:
        changed = False
        for i in range(len(assigned)):
            for j in range(i + 1, len(assigned)):
                (r1, c1), (r2, c2) = assigned[i], assigned[j]
                if c2 < c1 and matrix[r1][c2] + matrix[r2][c1] == matrix[r1][c1] + matrix[r2][c2]:
                    assigned[i], assigned[j] = (r1, c2), (r2, c1)
                    changed = True
    return assigned


def _solve_lsap(matrix: list[list[float]]) -> list[tuple[int, int]]:
    """Minimum-cost rectangular assignment as ``(row, col)`` pairs.

    Crouse's shortest augmenting path (IEEE TAES 52(4), 2016), written to
    perform the floating-point operations of scipy's
    ``linear_sum_assignment`` in the same order, so that among equal-cost
    optima it picks the same one: a tall matrix is transposed, the
    remaining columns are scanned in reverse, a tie goes to a column
    without a row, and the duals are updated row first.
    """
    nr, nc = len(matrix), len(matrix[0])
    transpose = nc < nr
    if transpose:
        matrix = [list(col) for col in zip(*matrix)]
        nr, nc = nc, nr
    inf = float("inf")
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    path = [-1] * nc
    for cur_row in range(nr):
        shortest = [inf] * nc
        visited_rows = []
        visited_cols = []
        remaining = list(range(nc - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            row, ui = matrix[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in visited_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:
        return sorted((row, col) for col, row in enumerate(col4row))
    return list(enumerate(col4row))


def fp_type_breakdown(
    preds: list[Detection],
    gts: list[Detection],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> dict[str, int]:
    """Segment the false positives of a strict assignment by their cause.

    ``class_only``: the box is fine (it becomes a TP once category matching
    is disabled). ``box_only``: the category is fine but the best same-class
    overlap falls short of the threshold. ``both_or_unmatched``: everything
    else, including duplicates and free-floating boxes.
    """
    strict = assign(preds, gts, iou_threshold, CategoryPolicy.strict())
    relaxed = assign(preds, gts, iou_threshold, CategoryPolicy.none())
    strict_tp = {r for r, _, _ in strict.pairs}
    relaxed_tp = {r for r, _, _ in relaxed.pairs}

    class_only = box_only = both_or_unmatched = 0
    for i, p in enumerate(preds):
        if i in strict_tp:
            continue
        if i in relaxed_tp:
            class_only += 1
            continue
        best = max(_ious(p.box, [g.box for g in gts if g.category == p.category]), default=0.0)
        if 0.0 < best < iou_threshold:
            box_only += 1
        else:
            both_or_unmatched += 1
    return {
        "class_only": class_only,
        "box_only": box_only,
        "both_or_unmatched": both_or_unmatched,
    }
