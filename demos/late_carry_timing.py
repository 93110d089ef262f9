"""
Timing with late inputs
=======================

In a carry chain the C input of each adder shows up later than A and B.
The adjusted full adder is built for exactly that: C sits only two
stages from both outputs, so a late C costs less than it would in the
plain structure.  Arrival overrides make the effect measurable.
"""

from gatelab import (
    adjusted_fa,
    arrivals,
    path_depth,
    slack_to_input,
    traditional_fa,
)

adj = adjusted_fa()
plain = traditional_fa()

print("stages from each input to each output")
for block in (plain, adj):
    for port_in in block.inputs:
        row = {
            port_out: path_depth(block, port_in, port_out)
            for port_out in block.outputs
        }
        print(f"  {block.name} {port_in}: {row}")
print()

# slack: how much later an input may arrive without moving the output
print("slack of each input in adjusted_fa")
for port_in in adj.inputs:
    for port_out in adj.outputs:
        s = slack_to_input(adj, port_in, port_out)
        print(f"  {port_in} -> {port_out}: {s}")
print()

# delaying C to stage 2 pushes the plain carry to 5 stages but the
# adjusted carry only to 4
for block in (plain, adj):
    late = arrivals(block, input_arrivals={"C": 2})
    print(f"{block.name} with C arriving at stage 2:", dict(late.output_arrival))

# charging inverters one stage shifts every profile by the inverter
# count on the critical path
print("adjusted_fa under inv_cost=1:", dict(arrivals(adj, inv_cost=1).output_arrival))
