"""Zero-diffusion companion systems: steady states, basins, hitting times.

Two stories told by the well-mixed models:

  1. The conserved-sum system with superlinear p has a fold: below the
     threshold recovery rate a stable endemic state and a separatrix
     coexist, and the fate of the epidemic depends on the starting split.
  2. The mortality system with q < 1 can lose its susceptibles in finite
     time; the closed-form bound on the hitting time is compared with the
     integrator's measured clamp time.
"""

from sqip.ode import (SiOdeParams, SisOdeParams, extinction_time_bound,
                      n_star, rk4_integrate, si_classify, sis_classify,
                      sis_steady_states)


def fold_structure():
    print("=== fold structure of the conserved-sum system (p = 2, q = 1, "
          "beta = 1, N = 1) ===")
    fold = n_star(2, 1, 1)
    print(f"fold threshold on gamma: beta * N* = {fold:.4f}")
    for gamma in (0.8 * fold, fold, 1.2 * fold):
        params = SisOdeParams(beta=1, gamma=gamma, p=2, q=1, N=1, S0=0.5)
        states = sis_steady_states(params)
        labels = [f"(S={st.S:.4f}, I={st.I:.4f}; {'/'.join(st.stability)})"
                  for st in states.all_states]
        print(f"gamma = {gamma:.4f}: {len(states.interior)} interior state(s)")
        for lab in labels:
            print(f"    {lab}")


def basins():
    print("\n=== basins at gamma = 0.21: the separatrix sits at S = 0.7 ===")
    for S0 in (0.5, 0.65, 0.75, 0.9):
        params = SisOdeParams(beta=1, gamma=0.21, p=2, q=1, N=1, S0=S0)
        predicted = sis_classify(params)
        traj = rk4_integrate(params, t_end=300.0, dt=0.005, record_every=2000)
        print(f"S0 = {S0:.2f}: predicted -> ({predicted.limit_S:.3f}, "
              f"{predicted.limit_I:.3f}); integrated -> "
              f"({traj.terminal[0]:.3f}, {traj.terminal[1]:.3f})")


def hitting_time():
    print("\n=== finite-time loss of susceptibles (q = 0.5, p = 1, "
          "beta = mu = 1) ===")
    params = SiOdeParams(beta=1, mu=1, p=1, q=0.5, S0=1, I0=4)
    outcome = si_classify(params)
    bound = extinction_time_bound(params)
    traj = rk4_integrate(params, t_end=2.0, dt=1e-3)
    t_clamp = traj.clamp_time
    print(f"prediction: {outcome.kind}")
    print(f"closed-form upper bound on the hitting time: {bound:.6f}")
    print(f"measured hitting time of the integrator:     {t_clamp:.6f}")
    print(f"terminal state: S = {traj.terminal[0]:.3g}, "
          f"I = {traj.terminal[1]:.3g} (infected still decaying)")


def main():
    fold_structure()
    basins()
    hitting_time()


if __name__ == "__main__":
    main()
