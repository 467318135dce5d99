"""Anonymity by exhaustion: the paper's first claim, model-checked.

A bid must not name its bidder to the public; only the tracing key, which
knows q, may.  On the toy groups of ``tests/test_subgroup.py`` (n = 35 =
5 * 7, q = 7; ell = 139 and 419; ``support.toy_params``) each of the two members of a ring signs
one message with the randomiser r fixed and every blinding pair (e_0, e_1)
of Z_35^2, so each signer's whole distribution of signatures is listed.

- Hiding mode, h of order n (h = g, blind_base = [11]h beside
  key_base = [11]g): both signers yield the same 1225 signatures, and each
  one verifies.  This is perfect anonymity, the base case of the
  subgroup-decision argument (Boneh-Goh-Nissim, TCC 2005; Boyen-Waters,
  EUROCRYPT 2006).  ``setup`` reduces a mod q, so these parameters are
  built directly.
- Real mode, h of order q (``setup``'s parameters): the signers' sets
  differ, but they agree once every point is multiplied by p, which keeps
  only the G_q part; after [q] they differ, which is what ``locate_signer``
  reads.  So the signer shows only in the G_p part, which the public cannot
  split off without factoring n.
"""

import functools
import random

import pytest

from ringauction.group import PairingGroup
from ringauction.ringsig import BidderKeyPair, PublicParams, Ring, keygen, setup, sign, verify

from .support import toy_params

MESSAGE = b"toy"
R = 3  # the randomiser of s1 and s2, the same in every signature


class _Draws:
    """An rng whose randrange returns the given values in order: sign draws
    e_i for each ring slot in ring order, then r."""

    def __init__(self, *values):
        self._values = iter(values)

    def randrange(self, n):
        return next(self._values)


def _signatures(pp, keys, signer):
    """Every signature ``keys[signer]`` can make on MESSAGE with r = R."""
    ring = Ring(pp.group, [kp.pub_key for kp in keys])
    n = pp.group.n
    return ring, {sign(pp, ring, keys[signer], MESSAGE, _Draws(e0, e1, R))
                  for e0 in range(n) for e1 in range(n)}


def _times(grp, k, sigs):
    """The set of tuples of every point of a signature in ``sigs``
    multiplied by k; each distinct point is multiplied once."""
    times = functools.cache(lambda P: grp.mul(k, P))
    return {tuple(map(times, (sig.s1, sig.s2, *(P for m in sig.members for P in (m.commit, m.proof)))))
            for sig in sigs}


@pytest.fixture(scope="module", params=(139, 419))
def toy(request):
    params = toy_params(request.param)
    real, _ = setup(params, 2, random.Random(0))
    grp = params.group
    hiding_grp = PairingGroup(grp.n, grp.ell, grp.g, grp.g)
    key_base = hiding_grp.mul(11, hiding_grp.g)
    hiding = PublicParams(group=hiding_grp, key_base=key_base, commit_offset=real.commit_offset,
                          blind_base=hiding_grp.mul(11, hiding_grp.h), hash_base=real.hash_base,
                          hash_gens=real.hash_gens)
    return params, real, hiding


def test_hiding_mode_signers_yield_the_same_signatures(toy):
    _, _, pp = toy
    keys = [keygen(pp, random.Random(seed)) for seed in (1, 2)]
    ring, first = _signatures(pp, keys, 0)
    _, second = _signatures(pp, keys, 1)
    assert first == second
    assert len(first) == pp.group.n ** 2
    assert all(verify(pp, ring, MESSAGE, sig) for sig in first)


def _keys(pp, q, degenerate):
    """Two key pairs, trying x = 1, 2, .. in turn: the first whose offset key
    K' = [x]g - commit_offset lies in G_q and the first whose K' does not, if
    ``degenerate``; else the first two whose K' does not."""
    grp = pp.group
    pairs = [BidderKeyPair(x, grp.mul(x, grp.g), grp.mul(x, pp.key_base)) for x in range(1, grp.n)]
    in_q = [grp.mul(q, grp.add(kp.pub_key, grp.neg(pp.commit_offset))) is None for kp in pairs]
    plain = [kp for kp, flag in zip(pairs, in_q) if not flag]
    return [pairs[in_q.index(True)], plain[0]] if degenerate else plain[:2]


# degenerate ring? -> (signatures per signer, after [p], after [q]).  A
# slot's proof [e^2]h +- [e]K' takes e mod 35 unless K' lies in G_q, and
# its G_p part [+-e]K'_p is all that [q] leaves of a signature besides
# fixed points; a degenerate key (K' in G_q, which locate_signer skips)
# leaves its slot's G_p part fixed.
REAL_COUNTS = {False: (1225, 49, 25), True: (245, 49, 5)}


@pytest.mark.parametrize("degenerate", (False, True), ids=("plain", "degenerate"))
def test_real_mode_signers_differ_only_in_the_g_p_part(toy, degenerate):
    params, pp, _ = toy
    grp = pp.group
    keys = _keys(pp, params.q, degenerate)
    first, second = (_signatures(pp, keys, signer)[1] for signer in (0, 1))
    total, after_p, after_q = REAL_COUNTS[degenerate]
    assert first != second
    assert len(first) == len(second) == total
    in_q = [_times(grp, params.p, sigs) for sigs in (first, second)]
    assert in_q[0] == in_q[1]
    assert len(in_q[0]) == after_p
    in_p = [_times(grp, params.q, sigs) for sigs in (first, second)]
    assert in_p[0] != in_p[1]
    assert len(in_p[0]) == len(in_p[1]) == after_q
