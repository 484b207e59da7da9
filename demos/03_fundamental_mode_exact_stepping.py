"""Standard versus shifted fully implicit stepping on the model problem.

Both schemes solve one sparse system per step.  The standard scheme damps
the fundamental mode by 1/(1 + lambda1 tau) per step instead of
exp(-lambda1 tau), so its amplitude error is first order in tau and
dominates at large times.  The shifted scheme applies the same weighted
formula to K - lambda1 M and rescales by exp(lambda1 tau); its amplitude
defect stays at solver tolerance for any step size, and the overall error
against a fine reference drops as well.

eps_a is the defect in the fundamental-mode amplitude, eps_u the relative
mass-norm distance to a 1000-step fully implicit reference.
"""

import numpy as np

from fmes import (SchemeSpec, assemble, build_mesh, epsilon_u,
                  initial_state, inverse_iteration, make_reference,
                  run_scheme)

T = 0.1
STEP_COUNTS = (10, 20, 40, 100)


def main():
    sys = assemble(build_mesh(26))
    pair = inverse_iteration(sys)
    print(f"lambda1 = {pair.lambda1:.11f} "
          f"({pair.iterations} inverse iterations)\n")

    w0 = initial_state(sys)
    reference = make_reference(sys, w0, T, 1000, STEP_COUNTS)

    print(f"{'scheme':15s} {'N':>4s} {'max|eps_a|':>12s} {'max eps_u':>12s}")
    for kind, lam in (("theta_standard", None), ("theta_fmes", pair.lambda1)):
        for n_steps in STEP_COUNTS:
            spec = SchemeSpec(kind, tau=T / n_steps, n_steps=n_steps,
                              sigma=1.0, lambda1=lam)
            traj = run_scheme(spec, sys, w0, phi1=pair.phi1)
            eps_a = np.abs(traj.amplitudes - traj.amplitudes[0]
                           * np.exp(-pair.lambda1 * traj.times)).max()
            stride = (len(reference.times) - 1) // n_steps
            eps_u = max(epsilon_u(traj.vector_at(n),
                                  reference.vector_at(n * stride), sys.M)
                        for n in range(1, n_steps + 1))
            print(f"{kind:15s} {n_steps:4d} {eps_a:12.3e} {eps_u:12.3e}")
    print("\nThe shifted scheme reproduces the fundamental amplitude to "
          "solver precision at every step count; the standard scheme "
          "improves only linearly with N.")


if __name__ == "__main__":
    main()
