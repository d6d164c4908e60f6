"""AB-ORAM: the paper's contribution.

- :mod:`repro.core.dead_queue` -- the per-level DeadQ FIFOs that track
  recently generated dead blocks.
- :mod:`repro.core.remote` -- the remote-allocation machinery: slot
  gathering, rental (S extension), release, and the extension-success
  accounting behind the paper's Fig. 14.
- :mod:`repro.core.schemes` -- every configuration evaluated in the
  paper (Baseline/CB, IR, DR, NS, AB, classic Ring, Fig. 4 variants).
- :mod:`repro.core.ab_oram` -- the user-facing controller that wires a
  Ring ORAM instance to the AB extensions.
- :mod:`repro.core.security` -- the empirical attacker of section VI-C.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.core.dead_queue": ("DeadQueue", "DeadQueueSet"),
    "repro.core.remote": ("RemoteAllocator",),
    "repro.core.ab_oram": ("AbOram", "build_oram"),
    "repro.core": ("schemes",),
})
