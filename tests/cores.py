"""The state a `DetCore` carries between arrivals, for tests that compare
two cores.

Each state attribute is read by its name, the name of the slot that
stores it without the leading underscore, which writes a running core's
generator back first; `pend_cap`, a plain slot, is read as it is.  The
generator, its flag and the weak-reference slot are left out, and
`pending` is read as a list.
"""

from parmatch.det_matcher import DetCore

STATE = [
    name
    for name in DetCore.__slots__
    if name not in ("pending", "run", "synced", "__weakref__")
]


def core_state(core: DetCore) -> dict:
    state = {name.lstrip("_"): getattr(core, name.lstrip("_")) for name in STATE}
    state["pending"] = list(core.pending)
    return state
