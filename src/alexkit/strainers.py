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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KitError, Refusal
from .kplane import comparison_angles_array
from .space import Space, Subset, ball, packing_number

MAX_STRAINER_LENGTH = 1.0
HALF_PI = math.pi / 2.0


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

    @property
    def margins(self) -> dict[int, float]:
        return {p: s.delta_achieved for p, s in self.witnesses.items()}

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


def find_strainer(space: Space, p: int, k: int, delta: float, ell: float,
                  search_radius: float, beam_width: int = 8) -> Strainer | None:
    """Beam search for a (k, delta)-strainer at p with length > ell.

    Picks the best first pairs by maximal comparison angle, then greedily
    extends with pairs minimizing the achieved delta (beam width 8,
    deterministic id-order tie-breaking).  An extension's margin is never
    below its parent's, so pairs and beams already at margin >= delta are
    dropped before ranking; the pruning is exact, and the witness does not
    depend on delta except for whether it is returned.  None means that no
    beam reached a margin < delta: a heuristic result, not a certificate.
    """
    (p,) = space.check_ids([p])
    p = int(p)
    if ell > MAX_STRAINER_LENGTH:
        raise Refusal(f"strainer length bound ell = {ell} exceeds 1")
    if ell >= search_radius:
        raise Refusal("need ell < search_radius")
    if k == 0:
        return Strainer(base=p, pairs=(), delta_achieved=0.0, length=math.inf)

    dp = space.dist[p]
    pool = np.flatnonzero((dp > ell) & (dp < search_radius))
    if pool.size < 2 * k:
        return None

    # pairwise comparison angles at p over the pool
    d = space.dist
    ang = comparison_angles_array(
        space.kappa, dp[pool][:, None], dp[pool][None, :],
        d[np.ix_(pool, pool)])
    cross_margin = HALF_PI - ang         # the pi/2 - delta condition
    # the live pool pairs: pair margin (the pi - delta condition) below delta
    iu, ju = np.triu_indices(pool.size, k=1)
    pair_margin = math.pi - ang[iu, ju]
    live = pair_margin < delta
    iu, ju, pair_margin = iu[live], ju[live], pair_margin[live]

    def best(margins):
        """The beam_width live pairs of least margin < delta; ties by pool id."""
        keep = np.flatnonzero(margins < delta)
        take = keep[np.lexsort((pool[ju[keep]], pool[iu[keep]], margins[keep]))]
        return [(float(margins[t]), (int(iu[t]), int(ju[t])))
                for t in take[:beam_width]]

    beams = [(margin, [pr]) for margin, pr in best(pair_margin)]
    for _ in range(1, k):
        extensions = []
        for margin0, chosen in beams:
            used = [i for pr in chosen for i in pr]
            # worst cross margin of each pool point against the chosen points
            wc = cross_margin[:, used].max(axis=1)
            wc[used] = math.inf
            margins = np.maximum(np.maximum(pair_margin, margin0),
                                 np.maximum(wc[iu], wc[ju]))
            extensions += [(m, chosen + [pr]) for m, pr in best(margins)]
        extensions.sort(key=lambda e: (e[0], [pool[i] for pr in e[1] for i in pr]))
        beams = []
        seen = set()
        for margin, chosen in extensions:
            key = frozenset(frozenset(pr) for pr in chosen)
            if key in seen:
                continue
            seen.add(key)
            beams.append((margin, chosen))
            if len(beams) >= beam_width:
                break

    if not beams:
        return None
    margin, chosen = beams[0]
    ids = [(int(pool[a]), int(pool[b])) for a, b in chosen]
    pts = [i for pr in ids for i in pr]
    length = float(dp[pts].min())
    return Strainer(base=p, pairs=tuple(ids), delta_achieved=margin, length=length)


def classify(subset: Subset, k: int, delta: float, ell: float,
             search_radius: float, beam_width: int = 8,
             stop_at_first: bool = False) -> ClassificationMask:
    """Run the strainer search at every subset point; keep the witnesses.

    ``stop_at_first`` returns as soon as one member is found (used by
    strainer-number searches where only non-emptiness matters).
    """
    members = []
    witnesses = {}
    for p in subset.indices:
        s = find_strainer(subset.space, int(p), k, delta, ell, search_radius,
                          beam_width)
        if s is not None:
            members.append(int(p))
            witnesses[int(p)] = s
            if stop_at_first:
                break
    return ClassificationMask(subset=subset, k=k, delta=delta, ell=ell,
                              search_radius=search_radius,
                              member_ids=np.asarray(members, dtype=int),
                              witnesses=witnesses)


def strainer_number(subset: Subset, delta: float, ell: float,
                    search_radius: float | None = None, max_k: int = 8) -> int:
    """Largest k for which some subset point is (k, delta)-strained.

    Searched k = 1, 2, ... until the classification mask comes up empty.
    Emptiness is heuristic (beam search), so the result is a best-effort
    value, exact on the model spaces the search was tuned for.
    """
    if search_radius is None:
        search_radius = min(4.0 * ell, subset.space.diameter)
        if search_radius <= ell:
            search_radius = 2.0 * ell
    for k in range(1, max_k + 1):
        mask = classify(subset, k, delta, ell, search_radius, stop_at_first=True)
        if mask.is_empty():
            return k - 1
    return max_k


def local_strainer_number(subset: Subset, p: int, delta: float,
                          scales, ell_factor: float = 0.25) -> dict:
    """Strainer number of subset-intersect-ball(p, r) per scale r.

    Scales must be descending and >= 4h.  The returned value is the number
    stabilized over the two smallest scales; the full per-scale profile is
    reported alongside.
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
        profile[r] = strainer_number(local, delta, ell=ell_factor * r,
                                     search_radius=r)
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
    if search_radius is None:
        search_radius = min(4.0 * ell, subset.space.diameter)
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
    if search_radius is None:
        search_radius = min(4.0 * ell, subset.space.diameter)
    mask = classify(subset, k, delta, ell, search_radius)
    rest = np.setdiff1d(subset.indices, mask.member_ids)
    if rest.size == 0:
        return 0.0
    beta = packing_number(subset.space, rest, eps)
    return eps**m * beta
