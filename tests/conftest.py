import importlib.util
from pathlib import Path

import pytest

from graphsym import Graph


@pytest.fixture(scope="session")
def query_products():
    """The benchmark's fixed query-mix product sample, read from its input
    generator without changing it: (factor spec, product graph) pairs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    out = []
    for k1, a, op, k2, b in inputs.product_catalogue()[::inputs.PRODUCT_STRIDE]:
        e1, e2 = inputs.factor_edges(k1, a), inputs.factor_edges(k2, b)
        edges = inputs.product_edges(op, a, e1, b, e2)
        out.append(((k1, a, op, k2, b), Graph.from_edges(a * b, edges)))
    return out
