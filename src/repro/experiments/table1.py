"""Table I: theoretical worst-case accuracy of the sensor modules.

Derives each module's worst-case voltage/current/power error from the
physical constants in the module catalog via the paper's error
propagation formula, and compares against the published table.
"""

from __future__ import annotations

from repro.analysis.accuracy import worst_case_accuracy
from repro.campaign import registry
from repro.experiments.common import ExperimentResult, relative_delta
from repro.hardware.modules import module_spec

#: (module key, paper E_u [mV], paper E_i [A], paper E_p [W]) — Table I.
PAPER_TABLE1 = (
    ("pcie_slot_12v", 28.6, 0.35, 4.2),
    ("pcie_slot_3v3", 19.9, 0.35, 1.2),
    ("usbc", 28.6, 0.35, 7.0),
    ("pcie8pin", 28.6, 0.41, 5.0),
)


def run() -> ExperimentResult:
    result = ExperimentResult(name="Table I: worst-case module accuracy")
    for key, paper_eu_mv, paper_ei, paper_ep in PAPER_TABLE1:
        accuracy = worst_case_accuracy(module_spec(key))
        result.rows.append(
            {
                "module": accuracy.label,
                "E_u [mV]": accuracy.voltage_error_v * 1e3,
                "paper E_u": paper_eu_mv,
                "E_i [A]": accuracy.current_error_a,
                "paper E_i": paper_ei,
                "E_p [W]": accuracy.power_error_w,
                "paper E_p": paper_ep,
                "dP": f"{relative_delta(accuracy.power_error_w, paper_ep):+.1%}",
            }
        )
    result.notes.append(
        "errors are 3 sigma of transducer noise + ADC quantisation, "
        "propagated via E_p = sqrt((U*E_i)^2 + (I*E_u)^2 + (E_i*E_u)^2)"
    )
    return result


registry.register(
    "table1",
    section="Table I",
    runner=run,
    report_index=0,
    help="worst-case module accuracy from physical constants",
)


def main() -> None:
    registry.print_paper_scale("table1")


if __name__ == "__main__":
    main()
