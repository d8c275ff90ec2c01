"""Both routes on the same problems: Cartan's method vs jet-space completion.

A G-structure problem phi* eta = g eta is a first-order PDE system for the
map phi.  Encoding it in jet coordinates (solve g = A(X) (grad X) A(x)^{-1}
against the group's membership equations) lets the classical prolongation
machinery run next to the equivalence-method loop; the two routes find the
same number of integrability conditions, the same count of free second-order
parameters, and the same reduced Cartan characters.
"""

import random
from pathlib import Path

from cartaneq.jets import crosscheck_characters, encode_gstructure
from cartaneq.problems import load_problem

PROBLEMS = Path(__file__).parent.parent / "problems"


def main():
    for name in ("flat_identity", "flat_gl2", "toy_diag", "lagrangian"):
        problem, policy = load_problem(PROBLEMS / f"{name}.prob")
        R = encode_gstructure(problem)
        print(f"== {problem.title} ==")
        if R.equations:
            print("encoded first-order system:")
            for line in R.pretty():
                text = line if len(line) < 110 else line[:107] + "..."
                print("   ", text)
        else:
            print("encoded first-order system: no equations (the full diffeomorphism"
                  " pseudo-group)")
        res = crosscheck_characters(problem, random.Random(policy.seed))
        print(f"engine loop: r2 = {res.engine_r2}, s = {tuple(res.engine_s)}, "
              f"conditions = {res.engine_conditions}")
        print(f"jet loop:    r2 = {res.jet_r2}, s = {tuple(res.jet_s)}, "
              f"conditions = {res.jet_conditions}")
        print("agreement:", "yes" if res.equal else "NO", "\n")


if __name__ == "__main__":
    main()
