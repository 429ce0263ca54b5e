"""Gain normalization: the DC trace and what it certifies.

The compliance check never multiplies the cascade out.  It carries the DC
vector through the steps, starting from the base's DC vector ((1, 1)
without a base), and its verdict is one comparison: the lowpass entry of
the last vector, the unnormalized lowpass DC gain E_0(1), must equal K
(irreversible) or 1 (reversible).  For alternating steps that entry is the
B value Part 2 selects, and without a base the two-term recursion

    B_i = D_i * B_{i-1} + B_{i-2},        B_-2 = B_-1 = 1,

over the step DC gains D_i gives the same B sequence, as printed below.

Run:  python3 demos/02_gain_normalization.py
"""

from liftbank import check_part2, renormalize, scalar_dc_recursion
from liftbank.banks import dc_counterexample, five_three, haar


def show(name, cascade):
    report = check_part2(cascade)
    trace = cascade.dc_trace()
    print(f"{name}:")
    print(f"  step DC gains D_i = {[str(s.dc_gain()) for s in cascade.steps]}")
    print(f"  B sequence (B_-2 ..) = {[str(b) for b in trace.b]}")
    print(f"  selected index = {report.selected_index}, required = {report.required_value}")
    print(f"  verdict: {report.verdict}")
    for reason in report.reasons:
        print(f"    {reason}")
    print()


show("Haar", haar())
show("5/3 (reversible)", five_three())

# Integer lifting filters alone do not make a bank reversible-compliant:
# one step with filter 1 + z^-1 has DC gain 2 and lands on B_0 = 3.
show("counterexample", dc_counterexample())

# The recursion agrees with tracking the DC vector through the steps.
gains = [s.dc_gain() for s in five_three().steps]
print(f"recursion from gains alone: {[str(b) for b in scalar_dc_recursion(gains)]}")
print(f"vector-trace B sequence:    {[str(b) for b in five_three().dc_trace().b]}")
print()

# For an irreversible cascade with the wrong K, the fix is one assignment:
# set K to the unnormalized lowpass DC gain E_0(1).
wrong = haar().replace(k=7)
print(f"haar with K = 7: {check_part2(wrong).verdict}")
fixed = renormalize(wrong)
print(f"after renormalize: K = {fixed.cascade.k}, {check_part2(fixed.cascade).verdict}")
