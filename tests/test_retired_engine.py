"""The retired ``jit`` engine name is refused at every engine entry point.

The execution ladder is ``aot -> replay -> interpreter``
(:data:`repro.rv64.machine.ENGINES`).  A caller still asking for the
removed tier must get a classified error with a stable ``code`` — never
a silent demotion onto some other tier.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import KernelError, ServiceError, SimulationError
from repro.field.simulated import SimulatedFieldContext
from repro.kernels.runner import KernelRunner
from repro.rv64.machine import ENGINES, Machine
from repro.service import TenantConfig

RETIRED = "jit"


def test_retired_name_is_not_an_engine():
    assert RETIRED not in ENGINES
    assert ENGINES == ("interpreter", "replay", "aot")


def test_machine_run_refuses():
    with pytest.raises(SimulationError, match="unknown engine") as info:
        Machine().run(0x1000, engine=RETIRED)
    assert info.value.code == "simulation"


def test_kernel_runner_refuses(toy_kernels):
    kernel = toy_kernels["fp_add.reduced.ise"]
    with pytest.raises(KernelError, match="unknown engine") as info:
        KernelRunner(kernel, engine=RETIRED)
    assert info.value.code == "kernel"
    runner = KernelRunner(kernel, engine="aot")
    with pytest.raises(KernelError, match="unknown engine") as info:
        runner.run(1, 2, engine=RETIRED)
    assert info.value.code == "kernel"
    with pytest.raises(KernelError, match="unknown engine") as info:
        runner.run_batch([(1, 2)], engine=RETIRED)
    assert info.value.code == "kernel"


def test_field_context_refuses(toy_params):
    with pytest.raises(KernelError, match="unknown engine") as info:
        SimulatedFieldContext(toy_params.p, engine=RETIRED)
    assert info.value.code == "kernel"


def test_tenant_config_refuses():
    with pytest.raises(ServiceError, match="unknown engine") as info:
        TenantConfig("t", engine=RETIRED)
    assert info.value.code == "service"


@pytest.mark.parametrize("argv", [
    ["load", "--params", "toy", "--engine", RETIRED],
    ["bench", "--params", "toy", "--engine", RETIRED],
])
def test_cli_refuses(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
