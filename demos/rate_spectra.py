"""Induced decay rate vs mode detuning at strong bath drive.

The spectrum develops sidebands at the generalized Rabi frequency and a
window of negative damping (amplification) below it.  Both features are
written out for two drive strengths.
"""

import os

import numpy as np

from tlsbath import mollow_sideband, resolve, run_scenario, write_result

OUT = os.path.join(os.path.dirname(__file__), "output")
KAPPA_T = 5e-5


def main():
    os.makedirs(OUT, exist_ok=True)
    for mult in (10, 30):
        omega_b = mult * KAPPA_T
        cfg = resolve(
            {
                "bath": {"Omega_B": repr(omega_b)},
                "sweep": {
                    "variable": "Delta_0",
                    "start": repr(-2.0 * omega_b),
                    "stop": repr(2.0 * omega_b),
                    "count": "801",
                    "scale": "linear",
                },
            }
        )
        res = run_scenario("decay-rate", cfg)
        res_cols = dict(zip(res.columns, zip(*res.rows)))
        write_result(res, os.path.join(OUT, f"decay_rate_{mult}x.csv"))

        gamma = np.array(res_cols["gamma"])
        grid = np.array(res_cols["Delta_0"])
        blue = grid[(gamma < 0) & (grid > 0)]  # amplification side
        side = mollow_sideband(omega_b, KAPPA_T)
        print(
            f"Omega_B = {mult:2d} kappa_t: sideband prediction {side:.4e}, "
            f"blue-side amplification window [{blue.min():.3e}, {blue.max():.3e}]"
        )

        shift = run_scenario("freq-shift", cfg)
        write_result(shift, os.path.join(OUT, f"freq_shift_{mult}x.csv"))


if __name__ == "__main__":
    main()
