"""Registration authority, key-possession proofs, and the bulletin board.

The bulletin board is the single public artifact of the protocol: an
append-only sequenced log of key publications, evictions, posted bids and
winner announcements.  ``BoardState`` folds its key records into the
*active-key view*, the only thing admission ever consults; the live board
and the public replay share that fold, which checks each published key but
decodes none.  There is no black list: eviction appends a record and the
key simply drops out of the active view, so the board is the only record of
who has been evicted.

The registration manager privately keeps the (published key -> identity)
table and nothing else.  Nothing on the board links a key to an identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .group import InvalidPoint, PairingGroup, Point, check_point_bytes

KEY_PUBLISHED = "key-published"
KEY_EVICTED = "key-evicted"
BID_POSTED = "bid-posted"
WINNER_ANNOUNCED = "winner-announced"
ENTRY_KINDS = (KEY_PUBLISHED, KEY_EVICTED, BID_POSTED, WINNER_ANNOUNCED)


class RegistryError(Exception):
    """Base class for registration failures."""


class DuplicateKey(RegistryError):
    """The key already has a record (active or evicted)."""


class InvalidProof(RegistryError):
    """The possession proof or the key itself failed checks."""


class UnknownKey(RegistryError):
    """No record exists for the key."""


class AlreadyEvicted(RegistryError):
    """The key was evicted before."""


class MalformedBoard(RegistryError):
    """A board record failed to parse or does not fit the active-key view.

    ``reason`` says what is wrong; ``seq`` (once read) and ``line`` (from a
    parser) locate the failing record, else None.  With a line number the
    message reads ``line N: reason``.
    """

    def __init__(self, reason: str, *, line: int | None = None,
                 seq: int | None = None) -> None:
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.reason = reason
        self.line = line
        self.seq = seq


# ---------------------------------------------------------------------------
# possession proofs

@dataclass(frozen=True)
class RegistrationProof:
    """Schnorr-style proof of knowledge of the key exponent, bound to the key
    and the claimed identity through the scalar hash (strong Fiat–Shamir)."""

    a_resp: int  # hash of key ‖ commitment ‖ identity (points are fixed-width)
    b_resp: int  # masked exponent response


def make_registration(x: int, pub_key: Point, identity: bytes,
                      group: PairingGroup, rng) -> RegistrationProof:
    """Prove knowledge of x for pub_key = [x]g; a proof for another key fails to verify."""
    t = rng.randrange(group.n)
    commitment = group.mul(t, group.g)
    statement = group.encode_point(pub_key) + group.encode_point(commitment) + identity
    a_resp = group.hash_to_zn(statement)
    b_resp = (t + x * a_resp) % group.n
    return RegistrationProof(a_resp=a_resp, b_resp=b_resp)


def verify_registration(pub_key: Point, identity: bytes,
                        proof: RegistrationProof, group: PairingGroup) -> bool:
    """Recompute the commitment as [b]g - [a]pub_key and re-derive the hash."""
    if pub_key is None or not group.is_on_curve(pub_key):
        return False
    if not (0 <= proof.a_resp < group.n and 0 <= proof.b_resp < group.n):
        return False
    (commitment,) = group.to_affine(group.add_jac(
        group.mul_jac(proof.b_resp, group.g),
        group.neg(group.mul(proof.a_resp, pub_key)),
    ))
    statement = group.encode_point(pub_key) + group.encode_point(commitment) + identity
    return proof.a_resp == group.hash_to_zn(statement)


# ---------------------------------------------------------------------------
# bulletin board

@dataclass(frozen=True)
class BoardEntry:
    seq: int
    kind: str
    payload: bytes


class BoardState:
    """The active-key view: the set of active key encodings (``active``),
    each checked to decode to a finite point other than (0, 0).  ``apply``
    folds one record; a key record that does not fit raises MalformedBoard and
    changes nothing.  The group's ell must be prime: the check is exact only then."""

    def __init__(self, group: PairingGroup) -> None:
        self.group = group
        self.active: set[bytes] = set()

    def apply(self, entry: BoardEntry) -> None:
        payload = entry.payload
        if entry.kind == KEY_PUBLISHED:
            try:
                check_point_bytes(payload, self.group.ell)
            except InvalidPoint as exc:
                raise MalformedBoard(f"unreadable key: {exc}", seq=entry.seq) from exc
            if not any(payload):  # the identity's encoding is all zero
                raise MalformedBoard("identity point published as a key", seq=entry.seq)
            if not any(payload[:-1]):  # x = 0 under the even tag: (0, 0), of order 2
                raise MalformedBoard("order-2 point published as a key", seq=entry.seq)
            if payload in self.active:
                raise MalformedBoard("key is already active", seq=entry.seq)
            self.active.add(payload)
        elif entry.kind == KEY_EVICTED:
            if payload not in self.active:
                raise MalformedBoard("evicting a key that is not active", seq=entry.seq)
            self.active.remove(payload)


class BulletinBoard:
    """Append-only sequenced public log.

    ``append`` folds each record into a ``BoardState`` and stores only what
    the fold accepts (else MalformedBoard).  Reads hand out snapshots.
    """

    def __init__(self, group: PairingGroup) -> None:
        self._entries: list[BoardEntry] = []
        self._state = BoardState(group)

    def append(self, kind: str, payload: bytes) -> int:
        if kind not in ENTRY_KINDS:
            raise ValueError(f"unknown entry kind {kind!r}")
        entry = BoardEntry(seq=len(self._entries), kind=kind, payload=payload)
        self._state.apply(entry)
        self._entries.append(entry)
        return entry.seq

    def entries(self) -> tuple[BoardEntry, ...]:
        return tuple(self._entries)

    def active_keys(self) -> frozenset[bytes]:
        """Snapshot of currently active key encodings."""
        return frozenset(self._state.active)

    def all_active(self, encodings: Iterable[bytes]) -> bool:
        """Whether every encoding is an active key, looked up without a snapshot."""
        return all(encoding in self._state.active for encoding in encodings)

    def active_view(self) -> tuple[bytes, ...]:
        """Snapshot of the active key encodings in sorted order."""
        return tuple(sorted(self._state.active))


def board_to_text(entries: Iterable[BoardEntry]) -> str:
    """One record per line: seq, kind, hex payload."""
    return "".join(f"{e.seq} {e.kind} {e.payload.hex()}\n" for e in entries)


def parse_board_text(text: str) -> tuple[BoardEntry, ...]:
    """The only parser of ``seq kind payload`` records; blank lines are skipped.

    Raises MalformedBoard at the first record that is not well formed.
    """
    entries: list[BoardEntry] = []
    previous = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 3:
            raise MalformedBoard("record is not 'seq kind payload'", line=lineno)
        try:
            seq = int(parts[0])
        except ValueError:
            raise MalformedBoard("bad sequence number", line=lineno) from None
        if seq <= previous:
            raise MalformedBoard("sequence numbers must increase", line=lineno, seq=seq)
        previous = seq
        kind = parts[1]
        if kind not in ENTRY_KINDS:
            raise MalformedBoard(f"unknown record kind {kind!r}", line=lineno, seq=seq)
        try:
            payload = bytes.fromhex(parts[2])
        except ValueError:
            raise MalformedBoard("payload is not hex", line=lineno, seq=seq) from None
        entries.append(BoardEntry(seq=seq, kind=kind, payload=payload))
    return tuple(entries)


# ---------------------------------------------------------------------------
# registration manager

class RegistrationManager:
    """Owns the private identity table and publishes keys on the board.

    Single-owner actor: every mutation goes through this object.  The table
    (key encoding -> identity) survives eviction so audits can still resolve
    a key; whether a key is evicted is known only to the board's fold.
    """

    def __init__(self, group: PairingGroup, board: BulletinBoard) -> None:
        self.group = group
        self.board = board
        self._identities: dict[bytes, bytes] = {}

    def register(self, pub_key: Point, identity: bytes, proof: RegistrationProof) -> int:
        """Verify the possession proof, store the identity, publish the key.

        Returns the board sequence number of the key publication.
        """
        if pub_key is None:
            raise InvalidProof("the identity point cannot be registered")
        if not identity:
            raise InvalidProof("identity must be non-empty")
        # Order sanity: the key must live in the subgroup of exponent n.
        if not self.group.in_group(pub_key):
            raise InvalidProof("key order does not divide the group order")
        if not verify_registration(pub_key, identity, proof, self.group):
            raise InvalidProof("possession proof failed")
        encoded = self.group.encode_point(pub_key)
        if encoded in self._identities:
            raise DuplicateKey("key already registered")
        self._identities[encoded] = identity
        return self.board.append(KEY_PUBLISHED, encoded)

    def lookup_identity(self, pub_key: Point) -> bytes:
        """Resolve a published key to its identity (evicted keys stay resolvable)."""
        identity = self._identities.get(self.group.encode_point(pub_key))
        if identity is None:
            raise UnknownKey("no record for this key")
        return identity

    def evict(self, pub_key: Point) -> int:
        """Append the key's eviction record; the identity is kept for audit."""
        self.lookup_identity(pub_key)
        try:
            return self.board.append(KEY_EVICTED, self.group.encode_point(pub_key))
        except MalformedBoard as exc:  # the fold knows the key is no longer active
            raise AlreadyEvicted("key was already evicted") from exc
