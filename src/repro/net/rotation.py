"""Session keys and plan books: pre-shared obfuscation plans for rotation.

In the paper's threat model the obfuscated format is the shared secret; this
module packages it for the live transport layer.  A :class:`SessionKey` is one
complete dialect — the request- and response-direction graphs replayed from
their :class:`~repro.transforms.plan.ObfuscationPlan`\\ s, named by a stable
key identifier — and a :class:`PlanBook` is the keyring both endpoints hold.

Key distribution happens out of band (ship the plan files of
:mod:`repro.spec.planfile`, or derive from a shared seed); the wire only ever
carries the *key id* inside a rotation control record
(:func:`~repro.net.framing.encode_rotation`).  An observer therefore learns
that the dialect changed, never what it changed to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.errors import StreamError
from ..core.graph import FormatGraph
from ..protocols import registry
from ..transforms.engine import Obfuscator
from ..transforms.plan import ObfuscationPlan


@dataclass(frozen=True)
class SessionKey:
    """One obfuscated dialect of a protocol, ready to speak on a session.

    ``request_graph`` / ``response_graph`` are the transformed format graphs
    (single-direction protocols alias the same graph for both); the
    fingerprints name the per-direction plans and tag capture records.
    """

    key_id: str
    request_graph: FormatGraph
    response_graph: FormatGraph
    request_fingerprint: str | None
    response_fingerprint: str | None

    @staticmethod
    def _default_id(request_fingerprint: str | None,
                    response_fingerprint: str | None) -> str:
        seed = f"{request_fingerprint}:{response_fingerprint}"
        return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_plans(cls, protocol: "str | registry.ProtocolSetup",
                   request_plan: ObfuscationPlan,
                   response_plan: ObfuscationPlan | None = None, *,
                   key_id: str | None = None) -> "SessionKey":
        """Replay per-direction plans on the protocol's plain reference graphs.

        This is the key-distribution path: both endpoints load the same plan
        files and derive bit-identical dialects — same graphs, same compiled
        codec plans (the replayed graphs are fingerprint-stamped), same key
        id — without any shared RNG state.
        """
        setup = registry.get(protocol) if isinstance(protocol, str) else protocol
        request_graph = request_plan.replay(setup.reference_graph("request"))
        if response_plan is not None:
            response_graph = response_plan.replay(setup.reference_graph("response"))
        elif setup.response_graph_factory is not None:
            # A book key must transform *both* directions: an unrotated
            # response side would leak plain traffic after a rotation.
            raise StreamError(
                f"protocol {setup.key!r} models a response direction; provide "
                f"its plan too (or none for single-direction protocols)"
            )
        else:
            response_graph = request_graph
        return cls(
            key_id=(key_id if key_id is not None
                    else cls._default_id(request_plan.fingerprint,
                                         response_plan.fingerprint
                                         if response_plan is not None
                                         else request_plan.fingerprint)),
            request_graph=request_graph,
            response_graph=response_graph,
            request_fingerprint=request_plan.fingerprint,
            response_fingerprint=(response_plan.fingerprint
                                  if response_plan is not None
                                  else request_plan.fingerprint),
        )


def derive_session_key(protocol: "str | registry.ProtocolSetup", *,
                       passes: int = 1, seed: int = 0,
                       key_id: str | None = None) -> SessionKey:
    """Draw a fresh dialect of ``protocol`` and package it as a session key.

    Obfuscates each direction with its own engine (``seed`` for requests,
    ``seed + 1`` for responses, mirroring the resilience experiment's
    convention) and goes through plan extraction + replay, so the key is
    exactly what a peer rebuilding it from the persisted plans obtains.
    """
    setup = registry.get(protocol) if isinstance(protocol, str) else protocol
    request_plan = Obfuscator(seed=seed).obfuscate(
        setup.reference_graph("request"), passes).plan()
    response_plan = None
    if setup.response_graph_factory is not None:
        response_plan = Obfuscator(seed=seed + 1).obfuscate(
            setup.reference_graph("response"), passes).plan()
    return SessionKey.from_plans(setup, request_plan, response_plan, key_id=key_id)


class PlanBook:
    """The keyring of rotation-capable endpoints: key id → :class:`SessionKey`.

    Both endpoints of a session must hold books agreeing on every key id they
    rotate through; the first registered key is the session's initial dialect
    unless the endpoint overrides its graphs explicitly.

    The book is also what makes **reconnect-with-rotation-resume** possible:
    a client re-dialing after a mid-session cut re-announces only its last
    announced key id, and both sides resolve the full dialect from their own
    books — rotation state survives the transport, never crosses the wire.
    """

    def __init__(self, keys: "list[SessionKey] | None" = None):
        self._keys: dict[str, SessionKey] = {}
        self._initial: SessionKey | None = None
        for key in keys or ():
            self.add(key)

    def add(self, key: SessionKey) -> SessionKey:
        if key.key_id in self._keys:
            raise StreamError(f"plan book already holds key {key.key_id!r}")
        self._keys[key.key_id] = key
        if self._initial is None:
            self._initial = key
        return key

    def get(self, key_id: str) -> SessionKey:
        try:
            return self._keys[key_id]
        except KeyError:
            raise KeyError(
                f"plan book holds no key {key_id!r}; known: "
                f"{', '.join(self._keys) or 'none'}"
            ) from None

    @property
    def initial(self) -> SessionKey | None:
        """The first registered key (the session's starting dialect)."""
        return self._initial

    def key_ids(self) -> tuple[str, ...]:
        """Registered key ids, in insertion order."""
        return tuple(self._keys)

    def keys(self) -> tuple[SessionKey, ...]:
        """Registered session keys, in insertion order."""
        return tuple(self._keys.values())

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key_id: object) -> bool:
        return key_id in self._keys


__all__ = ["PlanBook", "SessionKey", "derive_session_key"]
