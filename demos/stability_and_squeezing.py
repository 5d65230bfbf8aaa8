"""Stability map over drive and intrinsic damping, plus the squeezing
parameter along a drive sweep for a blue-detuned mode.

The amplifying region (negative induced damping) destabilizes the mode
once gamma_0 cannot compensate; outside it the stationary state can
drop below vacuum quadrature noise.
"""

import os

import numpy as np

from tlsbath import resolve, run_scenario, write_result

OUT = os.path.join(os.path.dirname(__file__), "output")
KAPPA_T = 5e-5


def main():
    os.makedirs(OUT, exist_ok=True)

    grid = resolve(
        {
            "mode": {"Delta_0": repr(5 * KAPPA_T)},
            "sweep": {"start": "1e-6", "stop": "1e-3", "count": "100"},
            "sweep2": {
                "variable": "gamma_0",
                "start": "1e-9",
                "stop": "1e-5",
                "count": "100",
            },
        }
    )
    res = run_scenario("stability-map", grid)
    res_cols = dict(zip(res.columns, zip(*res.rows)))
    write_result(res, os.path.join(OUT, "stability_map.csv"))
    verdicts = np.array(res_cols["stable"])
    print(f"stability map: {int((1 - verdicts).sum())} unstable cells of {verdicts.size}")

    # resonant mode: squeezing peaks well below saturation
    squeeze = resolve(
        {
            "sweep": {"start": "2e-6", "stop": "3e-4", "count": "200"},
        }
    )
    sq = run_scenario("squeezing", squeeze)
    sq_cols = dict(zip(sq.columns, zip(*sq.rows)))
    write_result(sq, os.path.join(OUT, "squeezing_vs_drive.csv"))
    xi = np.array([v for v in sq_cols["xi"] if not isinstance(v, str)])
    drives = np.array(
        [row[0] for row in sq.rows if not isinstance(row[1], str)]
    )
    best = int(np.argmax(xi))
    s_best = drives[best] ** 2 / (1e-4 * KAPPA_T)
    verdict = "squeezed below vacuum noise" if xi[best] > 1 else "no squeezing"
    print(f"best xi = {xi[best]:.4f} at Omega_B = {drives[best]:.2e} "
          f"(saturation {s_best:.3f}): {verdict}")


if __name__ == "__main__":
    main()
