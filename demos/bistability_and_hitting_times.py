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
                      n_star, settle_batch, si_classify, sis_classify,
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
    starts = (0.5, 0.65, 0.75, 0.9)
    points = [SisOdeParams(beta=1, gamma=0.21, p=2, q=1, N=1, S0=S0)
              for S0 in starts]
    report = settle_batch(points, dt=0.005, t_max=300.0)
    for S0, params, (S, I) in zip(starts, points, report.y):
        predicted = sis_classify(params)
        print(f"S0 = {S0:.2f}: predicted -> ({predicted.limit_S:.3f}, "
              f"{predicted.limit_I:.3f}); integrated -> ({S:.3f}, {I:.3f})")


def hitting_time():
    print("\n=== finite-time loss of susceptibles (q = 0.5, p = 1, "
          "beta = mu = 1) ===")
    params = SiOdeParams(beta=1, mu=1, p=1, q=0.5, S0=1, I0=4)
    outcome = si_classify(params)
    bound = extinction_time_bound(params)
    # t_max = 2 is within the first settle checkpoint, so the run ends there
    report = settle_batch([params], dt=1e-3, t_max=2.0)
    (S, I), t_clamp = report.y[0], report.clamp_time[0]
    print(f"prediction: {outcome.kind}")
    print(f"closed-form upper bound on the hitting time: {bound:.6f}")
    print(f"measured hitting time of the integrator:     {t_clamp:.6f}")
    print(f"terminal state: S = {S:.3g}, I = {I:.3g} (infected still decaying)")


def main():
    fold_structure()
    basins()
    hitting_time()


if __name__ == "__main__":
    main()
