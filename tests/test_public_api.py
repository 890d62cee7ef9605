"""The documented top-level API surface must exist and cohere."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__.count(".") == 2


def test_readme_quickstart_runs():
    """The README quickstart, verbatim in spirit."""
    from repro import DifferencePropagation, Line, StuckAtFault, get_circuit

    circuit = get_circuit("c17")
    engine = DifferencePropagation(circuit)
    analysis = engine.analyze(StuckAtFault(Line("G10"), value=True))
    assert 0 < analysis.detectability < 1
    assert analysis.test_count() == analysis.tests.satcount()
    assert analysis.pick_test() is not None
    assert analysis.observable_pos <= set(circuit.outputs)


def test_subpackages_importable():
    for module in (
        "repro.bdd",
        "repro.circuit",
        "repro.benchcircuits",
        "repro.faults",
        "repro.simulation",
        "repro.core",
        "repro.analysis",
        "repro.experiments",
    ):
        importlib.import_module(module)


def test_package_docstrings():
    """Every public module carries real documentation."""
    for module_name in (
        "repro",
        "repro.bdd.manager",
        "repro.circuit.netlist",
        "repro.core.engine",
        "repro.core.difference",
        "repro.faults.bridging",
        "repro.simulation.truthtable",
    ):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 60


def test_docstring_examples_run():
    """Every ``>>>`` example in the package's docstrings still holds."""
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    failures = {}
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        if result.failed:
            failures[name] = result.failed
    assert not failures, failures
