"""Detection and classification of strained points.

A (k, delta)-strainer at p is a collection of k point pairs (a_i, b_i) with
comparison angles a_i p b_i > pi - delta and all cross angles (a_i p a_j,
a_i p b_j, b_i p b_j for i != j) > pi/2 - delta, measured at the ambient
curvature.  ``delta_achieved`` is the smallest margin that would make all the
inequalities hold, stored quantitatively because the trend tests need it.

Search is a beam search (width 8, deterministic id-order tie-breaking) that
drops every pair and beam already at margin >= delta.  That pruning is exact:
the witness does not depend on delta except for whether it is returned.  The
beam itself is heuristic: "no strainer found" is NOT proof of absence.
Strainer lengths are capped at 1; all arguments using strainers are local.

One kernel runs the search for a block of base points at once: their pools
padded to one width P, one (points, P, P) comparison-angle array, the live
pairs of each point and every beam level as arrays over the block.  Blocks
are runs of consecutive points sized so that the angle array stays within a
fixed element budget.  ``classify`` scans a subset block by block, and
``find_strainer`` is the kernel called on one point; both give the same
witness at every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KitError, Refusal
from .kplane import comparison_angles_array
from .space import Space, Subset, ball, packing_number

MAX_STRAINER_LENGTH = 1.0
MAX_STRAINER_NUMBER = 8          # strainer_number searches k = 1 .. 8
HALF_PI = math.pi / 2.0
BEAM_WIDTH = 8
# most elements in one block's (points, pool, pool) angle array
_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class Strainer:
    base: int
    pairs: tuple[tuple[int, int], ...]
    delta_achieved: float
    length: float

    @property
    def k(self) -> int:
        return len(self.pairs)

    def point_ids(self) -> list[int]:
        return [i for pair in self.pairs for i in pair]

    def to_dict(self) -> dict:
        return {"base": self.base, "pairs": [list(p) for p in self.pairs],
                "delta_achieved": self.delta_achieved, "length": self.length}


@dataclass
class ClassificationMask:
    subset: Subset
    k: int
    delta: float
    ell: float
    search_radius: float
    member_ids: np.ndarray
    witnesses: dict[int, Strainer] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return self.member_ids.size == 0

    def to_dict(self) -> dict:
        return {
            "k": self.k, "delta": self.delta, "ell": self.ell,
            "search_radius": self.search_radius,
            "member_ids": self.member_ids.tolist(),
            "witnesses": {int(p): s.to_dict() for p, s in self.witnesses.items()},
        }


def _strainer_margin(space: Space, p: int, pairs) -> float:
    """Smallest delta for which the pairs form a (k, delta)-strainer at p."""
    flat = np.array([int(i) for pair in pairs for i in pair], dtype=int)
    x, y = np.triu_indices(flat.size, k=1)
    u, v = flat[x], flat[y]
    d = space.dist
    ang = comparison_angles_array(space.kappa, d[p, u], d[p, v], d[u, v])
    # same pair: the pi - delta condition; otherwise the pi/2 - delta one
    margins = np.where(x // 2 == y // 2, math.pi, HALF_PI) - ang
    return float(np.nanmax(margins, initial=0.0))


def is_strainer(space: Space, p: int, pairs, delta: float) -> tuple[bool, float]:
    """Check the strainer inequalities; returns (ok, delta_achieved)."""
    (p,) = space.check_ids([p])
    pairs = [tuple(int(i) for i in pair) for pair in pairs]
    pts = [i for pair in pairs for i in pair]
    if any(i == p for i in pts) or len(set(pts)) != len(pts):
        raise KitError("strainer points must be distinct and differ from the base")
    if not pairs:
        return True, 0.0
    margin = _strainer_margin(space, int(p), pairs)
    return bool(margin < delta), float(margin)


def resolve_search_radius(space: Space, ell: float, search_radius: float | None) -> float:
    """The outer radius R of the search annulus ell < d < R: the given value,
    or by default min(4 ell, diameter)."""
    return min(4.0 * ell, space.diameter) if search_radius is None else search_radius


def _blocks(space: Space, ids, k: int, ell: float, search_radius: float):
    """Runs of consecutive base points with their pools (ell < d < R).

    Points whose pool holds fewer than 2k points have no strainer and are
    skipped.  A run grows while (points) x (largest pool)^2 stays within
    _BLOCK_ELEMENTS, so one point with a large pool is a run of its own.
    """
    block, pools, width = [], [], 0
    for p in ids:
        dp = space.dist[p]
        pool = np.flatnonzero((dp > ell) & (dp < search_radius))
        if pool.size < 2 * k:
            continue
        grown = max(width, pool.size)
        if block and (len(block) + 1) * grown * grown > _BLOCK_ELEMENTS:
            yield block, pools
            block, pools, grown = [], [], pool.size
        block.append(p)
        pools.append(pool)
        width = grown
    if block:
        yield block, pools


def _below(keep, values):
    """The entries of each row of values where keep holds, left-aligned in
    column order: (columns, values), padded with column 0 and value inf."""
    rows, cols = np.nonzero(keep)
    count = np.bincount(rows, minlength=keep.shape[0])
    slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    out = np.zeros((keep.shape[0], count.max(initial=0)), dtype=int)
    out_values = np.full(out.shape, math.inf)
    out[rows, slot] = cols
    out_values[rows, slot] = values[rows, cols]
    return out, out_values


def _beam(space: Space, block: list[int], pools: list[np.ndarray], k: int,
          delta: float) -> dict[int, Strainer]:
    """The width-BEAM_WIDTH beam search at every base point of one block.

    Pools are padded with the base point itself to the largest pool size P,
    so a padded entry has a zero side and angle NaN, and is never live.  The
    live pairs of each point (pair margin < delta) are listed row-major in
    (C, L) arrays, which is (pool id i, pool id j) order because pools are
    ascending; a stable sort on margin therefore breaks ties by pool id.
    Beams are (C, B) arrays of margins (inf: no beam) and live-pair slots.
    """
    c_n, width = len(block), max(pool.size for pool in pools)
    base = np.asarray(block)
    pool_ids = np.repeat(base[:, None], width, axis=1)
    for c, pool in enumerate(pools):
        pool_ids[c, :pool.size] = pool
    d = space.dist
    dp = d[base[:, None], pool_ids]
    ang = comparison_angles_array(space.kappa, dp[:, :, None], dp[:, None, :],
                                  d[pool_ids[:, :, None], pool_ids[:, None, :]])

    # the live pool pairs: pair margin (the pi - delta condition) below delta.
    # No int64 comparison here or below: its first use in a process faults
    # in 128 KiB of numpy code, which shows in the peak RSS of a CLI run.
    pair_margin = (math.pi - ang).reshape(c_n, -1)
    upper = ~np.tri(width, dtype=bool).ravel()
    live, live_m = _below((pair_margin < delta) & upper, pair_margin)
    if live.shape[1] == 0:
        return {}
    live_i, live_j = np.divmod(live, width)

    rows = np.arange(c_n)[:, None]
    if k == 1:
        chosen = live_m.argmin(axis=1)[:, None, None]
    else:
        chosen = np.argsort(live_m, axis=1, kind="stable")[:, :BEAM_WIDTH, None]
        cross = HALF_PI - ang          # the pi/2 - delta condition
    margin = np.take_along_axis(live_m, chosen[:, :, 0], axis=1)

    for level in range(1, k):
        # each beam's worst cross margin (C, B, P) of every pool point against
        # its chosen points, which themselves get inf
        a, b = live_i[rows, chosen[:, :, -1]], live_j[rows, chosen[:, :, -1]]
        wc = np.maximum(np.maximum(cross[rows, :, a], cross[rows, :, b]),
                        -math.inf if level == 1 else wc[rows, parent])
        np.put_along_axis(wc, a[:, :, None], math.inf, axis=2)
        np.put_along_axis(wc, b[:, :, None], math.inf, axis=2)
        # every beam extended by every live pair, then each beam's best
        ext = np.maximum(np.maximum(live_m[:, None, :], margin[:, :, None]),
                         np.maximum(np.take_along_axis(wc, live_i[:, None, :], axis=2),
                                    np.take_along_axis(wc, live_j[:, None, :], axis=2)))
        n_beams = ext.shape[1]
        ext = ext.reshape(c_n * n_beams, -1)
        top, top_m = _below(ext < delta, ext)
        if top.shape[1] == 0:
            return {}
        first = np.argsort(top_m, axis=1, kind="stable")[:, :BEAM_WIDTH]
        parent = np.repeat(np.arange(n_beams), first.shape[1])
        cand_margin = np.take_along_axis(top_m, first, axis=1).reshape(c_n, -1)
        cand = np.concatenate([chosen[:, parent], np.take_along_axis(
            top, first, axis=1).reshape(c_n, -1, 1)], axis=2)
        # candidates by (margin, chosen ids); the first of each set of pairs
        order = np.lexsort([*np.moveaxis(cand, 2, 0)[::-1], cand_margin], axis=1)
        cand = np.take_along_axis(cand, order[:, :, None], axis=1)
        cand_margin = np.take_along_axis(cand_margin, order, axis=1)
        # equal sets of pairs side by side, in candidate order (lexsort is
        # stable, and the padding of margin inf is last)
        pair_set = np.sort(cand, axis=2)
        group = np.lexsort(np.moveaxis(pair_set, 2, 0)[::-1], axis=1)
        pair_set = np.take_along_axis(pair_set, group[:, :, None], axis=1)
        same = np.zeros(group.shape, dtype=bool)
        same[:, 1:] = ~(pair_set[:, 1:] - pair_set[:, :-1]).any(axis=2)
        repeat = np.empty_like(same)
        np.put_along_axis(repeat, group, same, axis=1)
        keep, margin = _below((cand_margin < delta) & ~repeat, cand_margin)
        keep, margin = keep[:, :BEAM_WIDTH], margin[:, :BEAM_WIDTH]
        chosen = np.take_along_axis(cand, keep[:, :, None], axis=1)
        parent = parent[np.take_along_axis(order, keep, axis=1)]

    hit = np.flatnonzero(margin[:, 0] < delta)
    best = chosen[hit, 0]
    pts = pool_ids[hit[:, None, None], np.stack([live_i[hit[:, None], best],
                                            live_j[hit[:, None], best]], axis=2)]
    length = d[base[hit, None], pts.reshape(hit.size, 2 * k)].min(axis=1)
    return {block[c]: Strainer(base=block[c], pairs=tuple(map(tuple, pr)),
                               delta_achieved=m, length=ln)
            for c, pr, m, ln in zip(hit.tolist(), pts.tolist(),
                                    margin[hit, 0].tolist(), length.tolist())}


def _search(space: Space, ids: list[int], k: int, delta: float, ell: float,
            search_radius: float, stop_at_first: bool = False) -> dict[int, Strainer]:
    """The strainers found at the base points ids, in their order."""
    if ell > MAX_STRAINER_LENGTH:
        raise Refusal(f"strainer length bound ell = {ell} exceeds 1")
    if ell >= search_radius:
        raise Refusal("need ell < search_radius")
    if k < 0:
        raise Refusal(f"need k >= 0, got {k}")
    if k == 0:
        ids = ids[:1] if stop_at_first else ids
        return {p: Strainer(base=p, pairs=(), delta_achieved=0.0, length=math.inf)
                for p in ids}
    found = {}
    for block, pools in _blocks(space, ids, k, ell, search_radius):
        found.update(_beam(space, block, pools, k, delta))
        if stop_at_first and found:
            first = next(iter(found))
            return {first: found[first]}
    return found


def find_strainer(space: Space, p: int, k: int, delta: float, ell: float,
                  search_radius: float) -> Strainer | None:
    """Beam search for a (k, delta)-strainer at p with length > ell.

    Picks the best first pairs by maximal comparison angle, then greedily
    extends with pairs minimizing the achieved delta (beam width 8,
    deterministic id-order tie-breaking).  An extension's margin is never
    below its parent's, so pairs and beams already at margin >= delta are
    dropped before ranking; the pruning is exact, and the witness does not
    depend on delta except for whether it is returned.  None means that no
    beam reached a margin < delta: a heuristic result, not a certificate.
    This is the one-point call of the block kernel that :func:`classify`
    runs over a whole subset.
    """
    p = int(space.check_ids([p])[0])
    return _search(space, [p], k, delta, ell, search_radius).get(p)


def classify(subset: Subset, k: int, delta: float, ell: float,
             search_radius: float | None = None,
             stop_at_first: bool = False) -> ClassificationMask:
    """Run the strainer search at every subset point; keep the witnesses.

    ``search_radius`` defaults to min(4 ell, diameter)
    (:func:`resolve_search_radius`).  The points are searched in blocks of
    consecutive points (sized by their pools, see ``_blocks``), one array
    pass per block, with the witness at each point exactly that of
    :func:`find_strainer`.  ``stop_at_first`` returns only the first member
    (used by strainer-number searches where only non-emptiness matters); the
    rest of its block is searched anyway.
    """
    search_radius = resolve_search_radius(subset.space, ell, search_radius)
    witnesses = _search(subset.space, subset.indices.tolist(), k, delta, ell,
                        search_radius, stop_at_first)
    return ClassificationMask(subset=subset, k=k, delta=delta, ell=ell,
                              search_radius=search_radius,
                              member_ids=np.asarray(list(witnesses), dtype=int),
                              witnesses=witnesses)


def strainer_number(subset: Subset, delta: float, ell: float,
                    search_radius: float | None = None) -> int:
    """Largest k for which some subset point is (k, delta)-strained.

    Searched k = 1, 2, ..., MAX_STRAINER_NUMBER until the classification mask
    comes up empty.  Emptiness is heuristic (beam search), so the result is a
    best-effort value, exact on the model spaces the search was tuned for.
    ``search_radius`` defaults to min(4 ell, diameter); like every scan this
    refuses when it is not above ell.
    """
    search_radius = resolve_search_radius(subset.space, ell, search_radius)
    for k in range(1, MAX_STRAINER_NUMBER + 1):
        mask = classify(subset, k, delta, ell, search_radius, stop_at_first=True)
        if mask.is_empty():
            return k - 1
    return MAX_STRAINER_NUMBER


def local_strainer_number(subset: Subset, p: int, delta: float, scales) -> dict:
    """Strainer number of subset-intersect-ball(p, r) per scale r.

    Each scale searches with ell = r / 4 and search radius r.  Scales must be
    descending and >= 4h.  The returned value is the number stabilized over
    the two smallest scales; the full per-scale profile is reported alongside.
    """
    space = subset.space
    h = space.require_resolution()
    scales = [float(r) for r in scales]
    if any(s2 >= s1 for s1, s2 in zip(scales, scales[1:])):
        raise Refusal("scales must be strictly descending")
    if min(scales) < 4.0 * h:
        raise Refusal(f"scales must be >= 4h = {4 * h}")
    profile = {}
    for r in scales:
        ids = np.intersect1d(subset.indices, ball(space, p, r))
        if ids.size == 0:
            profile[r] = -1
            continue
        local = Subset(space, ids, name=f"{subset.name}|B({p},{r})",
                       link_radius=subset.link_radius)
        profile[r] = strainer_number(local, delta, ell=0.25 * r, search_radius=r)
    vals = [profile[r] for r in scales[-2:]]
    stable = len(set(vals)) == 1
    return {"value": vals[-1], "stable": stable, "profile": profile}


def regular_points(subset: Subset, m: int, delta_schedule=(0.2, 0.1, 0.05),
                   ell: float | None = None,
                   search_radius: float | None = None) -> dict:
    """Nested (m, delta)-strained masks along a descending delta schedule.

    The member set at the smallest feasible delta is the empirical regular
    set.  The limit delta -> 0 is not decidable from a finite sample, so the
    schedule makes the approximation explicit.  Nestedness is enforced: a
    point dropped at one delta stays dropped at all smaller ones.
    """
    sched = [float(d) for d in delta_schedule]
    if any(d2 >= d1 for d1, d2 in zip(sched, sched[1:])):
        raise Refusal("delta_schedule must be strictly descending")
    h = subset.space.require_resolution()
    if ell is None:
        ell = 4.0 * h
    search_radius = resolve_search_radius(subset.space, ell, search_radius)
    masks = []
    current: set[int] | None = None
    for d in sched:
        mask = classify(subset, m, d, ell, search_radius)
        ids = set(mask.member_ids.tolist())
        if current is not None:
            ids &= current
            mask.member_ids = np.asarray(sorted(ids), dtype=int)
            mask.witnesses = {p: w for p, w in mask.witnesses.items() if p in ids}
        current = ids
        masks.append(mask)
    final = masks[-1]
    return {
        "masks": masks,
        "regular_ids": final.member_ids,
        "fractions": {m_.delta: m_.member_ids.size / subset.size for m_ in masks},
    }


def unstrained_mass(subset: Subset, m: int, k: int, delta: float, ell: float,
                    eps: float, search_radius: float | None = None) -> float:
    """eps^m times the packing number of the unstrained part of the subset."""
    h = subset.space.require_resolution()
    if eps < 2.0 * h:
        raise Refusal(f"eps must be >= 2h = {2 * h}")
    mask = classify(subset, k, delta, ell, search_radius)
    rest = np.setdiff1d(subset.indices, mask.member_ids)
    if rest.size == 0:
        return 0.0
    beta = packing_number(subset.space, rest, eps)
    return eps**m * beta
