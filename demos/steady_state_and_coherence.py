"""Stationary mode occupation along a drive sweep, then the coherence
decay of a mode in undriven thermal contact with the bath.

The driven case is displacement dominated (g1 stays near its coherent
fraction), so the decoherence demo switches the drive off and warms the
environment instead: |g1| then decays as exp(-gamma_t tau / 2).
"""

import os

import numpy as np

from tlsbath import low_drive_limits, resolve, run_scenario, transverse_rate, write_result

OUT = os.path.join(os.path.dirname(__file__), "output")


def main():
    os.makedirs(OUT, exist_ok=True)

    drive_sweep = resolve(
        {
            "sweep": {"start": "1e-6", "stop": "3e-4", "count": "150"},
        }
    )
    res = run_scenario("steady-state", drive_sweep)
    res_cols = dict(zip(res.columns, zip(*res.rows)))
    write_result(res, os.path.join(OUT, "steady_state_vs_drive.csv"))
    occ = np.array(res_cols["occupation"], dtype=float)
    drives = np.array(res_cols["Omega_B"])
    print(f"occupation peaks at {occ.max():.3e} (Omega_B = {drives[np.argmax(occ)]:.2e})")

    temp = 0.5
    thermal = resolve(
        {
            "environment": {"temperature": str(temp)},
            "sweep": {
                "variable": "tau",
                "start": "0",
                "stop": "6e7",
                "count": "600",
                "scale": "linear",
            },
        }
    )
    assert thermal.Omega_B == 0  # undriven: purely thermal contact
    g1 = run_scenario("coherence", thermal)
    g1_cols = dict(zip(g1.columns, zip(*g1.rows)))
    write_result(g1, os.path.join(OUT, "coherence_g1_thermal.csv"))

    kappa_t = transverse_rate(thermal.tls_params(), thermal.environment())
    gamma, _ = low_drive_limits(
        thermal.n_tls, thermal.G, kappa_t, 0.0, temperature=temp
    )
    predicted = 2.0 / (thermal.gamma_0 + gamma)
    mags = np.array(g1_cols["g1_abs"])
    taus = np.array(g1_cols["tau"])
    crossing = taus[mags < np.exp(-1)][0]
    print(f"|g1| 1/e time {crossing:.3e} vs predicted 2/gamma_t = {predicted:.3e}")
    print(f"long-lag |g1| = {mags[-1]:.2e} (no coherent fraction without drive)")


if __name__ == "__main__":
    main()
