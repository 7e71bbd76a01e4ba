"""Chart gluing: the collar projection onto a strained subset.

The digest pins every output byte of the projection.  Some pinned values are
known defects (the collar's co-Lipschitz constant is negative and its map
moves 3 subset points, so ``identity_exact`` is False); a change that mends
them re-records the digest.
"""

import hashlib

import numpy as np
import pytest

from alexkit import glue, models
from alexkit.errors import Refusal
from alexkit.glue import bump, build_projection, discrete_net, projection_quality
from alexkit.io import dumps_stable


def digest(obj) -> str:
    return hashlib.sha256(dumps_stable(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def collar():
    # the collar-32gon benchmark workload at seed 0
    space = models.gen_regular_polygon(32, 0.04, circumradius=0.6)
    gmap = build_projection(space.subsets["boundary"], 1, 0.25, 0.1, 0.16, rho=0.03)
    return gmap, projection_quality(gmap)


def test_projection_digest(collar):
    gmap, quality = collar
    assert (gmap.net.size, gmap.domain.size) == (32, 141)
    assert gmap.to_dict()["quality"] == quality
    assert digest(gmap.to_dict()) == (
        "3f7dcb0af2eda9a4a821c95ed385ca36a0c4580f5b1ae5d72658973be277c325")


def test_projection_domain_holds_the_subset(collar):
    gmap, _ = collar
    sub = gmap.subset.indices
    assert np.isin(sub, gmap.domain).all()
    pos = np.searchsorted(gmap.domain, sub[0])
    assert gmap.domain[pos] == sub[0] and gmap.assignment[pos] in set(sub.tolist())
    assert np.isin(gmap.assignment, sub).all()


@pytest.mark.parametrize("m", [0, -1])
def test_chart_gluing_refuses_dimension_below_one(m):
    space = models.gen_regular_polygon(8, 0.1)
    sub = space.subsets["boundary"]
    with pytest.raises(Refusal, match=f"m >= 1, got m = {m}"):
        build_projection(sub, m, 0.25, 0.1, 0.4)


@pytest.fixture(scope="module")
def octagon():
    return models.gen_regular_polygon(8, 0.1)


def test_projection_refuses_a_collar_too_wide_for_the_net(octagon):
    with pytest.raises(Refusal, match=r"^\(3 \+ 2\*sqrt\(m\)\) \* rho = 0\.5 must be < r = 0\.4$"):
        build_projection(octagon.subsets["boundary"], 1, 0.25, 0.1, 0.4, rho=0.1)


def test_projection_refuses_unstrained_subset_points(octagon):
    # the corners and their neighbours: a corner's comparison angles are at
    # most 3 pi / 4, a margin of pi / 4 > delta
    with pytest.raises(Refusal, match=r"^24 subset point\(s\) not \(m=1, delta=0\.25\)-"
                                      r"strained with length > 0\.1: first ids \[0, 1, 7, "):
        build_projection(octagon.subsets["boundary"], 1, 0.25, 0.1, 0.4)


def test_projection_refuses_a_strainer_the_rebase_breaks(monkeypatch):
    # a slack of -delta bounds the rebased margin by 0, below every margin
    monkeypatch.setattr(glue, "REBASE_MARGIN_SLACK", -0.25)
    space = models.gen_regular_polygon(32, 0.04, circumradius=0.6)
    with pytest.raises(Refusal, match=r"^strainer gap at net point \d+: rebased margin "):
        build_projection(space.subsets["boundary"], 1, 0.25, 0.1, 0.16, rho=0.03)


def test_net_is_discrete_and_maximal():
    space = models.gen_regular_polygon(12, 0.05, circumradius=0.6)
    sub = space.subsets["boundary"]
    net = discrete_net(sub, 0.25)
    d = space.dist[np.ix_(net, net)]
    assert (d[np.triu_indices(net.size, 1)] > 0.125).all()
    assert (space.dist[np.ix_(net, sub.indices)].min(axis=0) <= 0.125).all()
    with pytest.raises(Refusal):
        discrete_net(sub, 0.1)  # below 4h


def test_bump_is_a_smoothstep_cutoff():
    assert bump(0.5) == 1.0 and bump(1.0) == 1.0 and bump(2.0) == 0.0
    assert bump(1.5) == pytest.approx(0.5)
