"""Host-speed probe.

Other tenants of the host slow this process by up to half, in phases of a
fraction of a second to a minute, and wall and CPU time agree. The probe, a
fixed pure-Python loop, is timed before every operation; an operation's wall
time is scaled by ``CALIBRATION_REF_S`` over the mean probe time around it.
``CALIBRATION_REF_S`` is the probe's time on an uncontended 2.0 GHz vCPU of
the reference host; the scale only makes figures from different runs
comparable. Set-up time is scaled the same way, by probes timed right after
set-up.
"""

from time import perf_counter

CALIBRATION_LOOP = 6000
CALIBRATION_REF_S = 0.40e-3


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return perf_counter() - start
