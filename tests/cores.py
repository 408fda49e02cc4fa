"""The state a `DetCore` carries between arrivals, for tests that compare
two cores.

Each state attribute is read by its name in `DetCore._STATE`, which
writes a running core's generator back first; the tables and `pend_cap`,
plain slots, are read as they are.  The generator, the state record
and the weak-reference slot are left out, and `pending` is read as a
list.
"""

from parmatch.det_matcher import DetCore

STATE = [
    name
    for name in DetCore.__slots__ + DetCore._STATE
    if name not in ("pending", "run", "state", "__weakref__")
]


def core_state(core: DetCore) -> dict:
    state = {name: getattr(core, name) for name in STATE}
    state["pending"] = list(core.pending)
    return state
