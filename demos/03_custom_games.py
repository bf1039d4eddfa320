"""Building and solving finite games under behavioral evaluation.

Walks through the game container, the perceived-utility evaluation, the
2x2 solver (which bisects the indifference condition for every alpha), the
damped n-player iteration, and the simplex-grid oracle that double-checks
them — then shows the plain-text game format used to ship games around.
"""
import numpy as np

from ptgrid import (
    FiniteGame,
    MixedProfile,
    PtProfile,
    brute_force_equilibrium,
    eut_utility,
    format_game,
    parse_game,
    pt_utility,
    solve_2x2,
    solve_fixed_point,
)

pennies = FiniteGame.from_bimatrix(
    [[1, -1], [-1, 1]],
    [[-1, 1], [1, -1]],
)
uniform = MixedProfile.uniform(pennies)

print("matching pennies at the uniform profile")
print("  objective utility:", eut_utility(pennies, 0, uniform))
behaviors = [PtProfile.weighting_only(0.5)] * 2
print("  perceived utility (alpha=0.5):", pt_utility(pennies, 0, uniform, behaviors))

print("\nequilibria under rational evaluation:")
for res in solve_2x2(pennies):
    print("  ", [np.round(m, 4) for m in res.profile], "residual", res.residual)

# weighting shifts the mixed equilibrium of an asymmetric game
skewed = FiniteGame.from_bimatrix(
    [[3, -1], [-2, 2]],
    [[-3, 1], [2, -2]],
)
for alpha in (1.0, 0.6, 0.3):
    results = solve_2x2(skewed, [PtProfile.weighting_only(alpha)] * 2)
    inner = [
        r for r in results
        if all(np.all(m > 0) and np.all(m < 1) for m in r.profile)
    ]
    print(f"alpha={alpha}: column player's equilibrium mix "
          f"{np.round(inner[0].profile[1], 4)}")

print("\ncross-check against the simplex-grid oracle (grid=100):")
oracle = brute_force_equilibrium(skewed, [PtProfile.weighting_only(0.6)] * 2, grid=100)
for prof in oracle:
    print("  ", [np.round(m, 4) for m in prof])

# a 3-player congestion-flavored game for the damped solver
rng = np.random.default_rng(3)
tensor = rng.uniform(-1, 1, size=(3, 2, 2, 2))
game3 = FiniteGame(tensor)
res = solve_fixed_point(game3, [PtProfile.weighting_only(0.7)] * 3)
# damped best response may cycle instead: the solver stops once it has
# certified that the cycle repeats forever without reaching tol
reason = f" (certified cycle of period {res.cycle_period})" if res.cycle_period else ""
print("\n3-player damped iteration:",
      "converged" if res.converged else "not converged" + reason,
      f"after {res.iterations} iterations, residual {res.residual:.2e}")

print("\nthe wire format round-trips:")
text = format_game(pennies)
print(text)
assert np.array_equal(parse_game(text).payoffs, pennies.payoffs)
