"""Gate-level construction, simulation, verification, timing, and export
for small arithmetic blocks built from 2-input AND/OR/NAND/NOR plus
inverters: bit sorters, fast-carry adders, (7,2) column compressors,
a parallel-prefix merge adder, and the array harness that ties them
together.
"""

from . import core, export, generators, simulate, timing, verify

# Each public name, under the submodule that defines it.  Every
# submodule is imported here, since tools that wrap gatelab's functions
# look them up in sys.modules; simulate and verify import numpy only
# inside the functions that use it, so importing the package loads no
# numpy.
_PUBLIC = {
    core: """BuildError Cell Circuit CircuitBuilder Const GateKind Instance
        NetlistError NetRef validate""",
    generators: """MIDDLE_PICKS REGISTRY BlockSpec GeneratorInfo ParameterError
        ParamSpec adjusted_fa array_reducer build_block compressor72_cascade
        compressor72_proposed half_sorter4 kogge_stone pipeline sfa sorter2
        sorting_network4 traditional_fa""",
    simulate: """SimulationError evaluate evaluate_batch exhaustive_columns
        vector_at""",
    verify: """EXHAUSTIVE_INPUT_BOUND ORACLES ExhaustiveBoundError Oracle
        VerificationReport resolve_oracle structured_rows
        verify_cout_independence verify_exhaustive verify_random""",
    timing: """AreaReport ArrivalMap ComparisonReport area arrivals compare depth
        path_depth slack_to_input""",
    export: """FormatError from_document from_json render to_document to_dot
        to_json to_structural_hdl write_text""",
}
globals().update(
    (name, getattr(module, name))
    for module, names in _PUBLIC.items()
    for name in names.split()
)
__all__ = sorted(name for names in _PUBLIC.values() for name in names.split())

__version__ = "0.1.0"
