"""Conditionally anonymous English auctions built on revocable ring signatures.

The package has five layers:

- :mod:`ringauction.group` — a composite-order bilinear group on a
  supersingular curve, with a modified Tate pairing and operation counting;
- :mod:`ringauction.ringsig` — the ring signature scheme: anyone can sign on
  behalf of a set of public keys, signatures are unlinkable, and the holder
  of the trace key (the group order's secret factor) can identify the signer;
- :mod:`ringauction.registry` — one-time identity registration and the
  append-only bulletin board that every protocol message lands on;
- :mod:`ringauction.auction` — bid admission, winner determination, and the
  open protocol that de-anonymizes only the winner (or a cheat, who is then
  evicted);
- :mod:`ringauction.harness` — seeded end-to-end scenarios, public transcript
  replay, and signing-cost reports read from an ``OpCounter``.

The package root exports only the seven names of the README's quick taste;
everything else is imported from its submodule.  All parameters in the
examples and tests are toy-sized for speed; nothing here is hardened for
production use.
"""

from .group import gen_group_params
from .ringsig import Ring, keygen, setup, sign, trace, verify

__all__ = ["gen_group_params", "setup", "keygen", "Ring", "sign", "verify", "trace"]
