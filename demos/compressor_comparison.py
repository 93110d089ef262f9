"""
Two ways to build a (7,2) compressor
====================================

Both blocks take seven same-weight bits plus two horizontal carry-ins
and emit Sum, Carry and two horizontal carry-outs satisfying

    Sum + 2*Carry + 2*Co1 + 4*Co2 == x1+..+x7 + Ci1 + Ci2.

The cascade chains five full adders.  The sorting-network build sorts
bit groups first so the downstream adders see ordered inputs and the
critical path shrinks from 12 stages to 10.  The carry-outs of both
must not depend on the carry-ins, otherwise columns would ripple.
"""

import sys

from gatelab import (
    compare,
    compressor72_cascade,
    compressor72_proposed,
    verify_cout_independence,
    verify_exhaustive,
)

fast = compressor72_proposed()
slow = compressor72_cascade()

# depth and cell budget side by side
report = compare([fast, slow])
sys.stdout.write(report.to_text())
print()

for block in (fast, slow):
    functional = verify_exhaustive(block)
    horizontal = verify_cout_independence(block)
    print(
        f"{block.name}: identity {functional.status} over"
        f" {functional.vectors_tried} vectors, carry-out independence"
        f" {horizontal.status}"
    )

delta = report.to_dict()["delta"]
print()
print(f"cascade is {delta['depth']} stages deeper")
print(f"cascade uses {delta['total']} more cells")
