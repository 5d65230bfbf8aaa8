"""Induced mode driving vs bath detuning and drive strength.

Two sweeps: the weak-drive response peaks exactly on the bath
resonance, and the response vs drive amplitude is maximal at
saturation s = 1 (stronger driving bleaches the bath).
"""

import os

import numpy as np

from tlsbath import resolve, run_scenario, write_result

OUT = os.path.join(os.path.dirname(__file__), "output")
KAPPA_T = 5e-5  # kappa_1/2 at T = 0 with the baseline parameters


def main():
    os.makedirs(OUT, exist_ok=True)

    weak = resolve(
        {
            "bath": {"Omega_B": repr(1e-2 * KAPPA_T)},
            "sweep": {
                "variable": "Delta_B",
                "start": repr(-10 * KAPPA_T),
                "stop": repr(10 * KAPPA_T),
                "count": "201",
                "scale": "linear",
            },
        }
    )
    res = run_scenario("driving", weak)
    res_cols = dict(zip(res.columns, zip(*res.rows)))
    write_result(res, os.path.join(OUT, "driving_vs_detuning.csv"))
    mag = np.array(res_cols["Omega_prime_abs"])
    grid = np.array(res_cols["Delta_B"])
    print(f"weak drive: response peak at Delta_B = {grid[np.argmax(mag)]:.3e}")

    vs_drive = resolve(
        {
            "sweep": {
                "variable": "Omega_B",
                "start": "1e-6",
                "stop": "1e-3",
                "count": "301",
            },
        }
    )
    res2 = run_scenario("driving", vs_drive)
    res2_cols = dict(zip(res2.columns, zip(*res2.rows)))
    write_result(res2, os.path.join(OUT, "driving_vs_drive.csv"))
    mag2 = np.array(res2_cols["Omega_prime_abs"])
    best = np.array(res2_cols["Omega_B"])[np.argmax(mag2)]
    # s = |Omega_B|^2 / (kappa_1 kappa_t) on resonance
    print(f"response maximal at Omega_B = {best:.3e} (saturation "
          f"{best**2 / (1e-4 * KAPPA_T):.3f})")


if __name__ == "__main__":
    main()
