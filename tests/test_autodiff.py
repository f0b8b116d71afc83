import numpy as np
import pytest

from cpl.autodiff import AdDomainError, Tape
from cpl.jets import Jet, UnsupportedJetOp, jet_tanh


def test_record_mul_value_and_partials():
    t = Tape()
    v = t.record("mul", 3.0, 3.0)
    assert float(v.value) == 9.0
    pa, pb = t.partials[v.idx]
    assert float(pa) == 3.0 and float(pb) == 3.0


def test_record_tanh_and_sin():
    t = Tape()
    v = t.record("tanh", 0.0)
    assert float(v.value) == 0.0
    assert float(t.partials[v.idx][0]) == 1.0
    w = t.record("sin", np.pi / 3.0)
    assert float(w.value) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-15)
    assert float(t.partials[w.idx][0]) == pytest.approx(0.5, rel=1e-15)


def test_domain_errors():
    t = Tape()
    with pytest.raises(AdDomainError):
        t.record("div", 1.0, 0.0)
    with pytest.raises(AdDomainError):
        t.record("sqrt", -1.0)


def test_backward_square():
    t = Tape()
    x = t.leaf(3.0)
    y = x.pow2()
    adj = t.backward(y)
    assert float(adj[x.idx]) == 6.0


def test_backward_x_tanh_y():
    t = Tape()
    x = t.leaf(2.0)
    y = t.leaf(0.0)
    f = x * y.tanh()
    adj = t.backward(f)
    assert float(adj[x.idx]) == 0.0
    assert float(adj[y.idx]) == 2.0


def test_backward_requires_scalar_root():
    t = Tape()
    x = t.leaf(np.array([1.0, 2.0]))
    y = x.pow2()
    with pytest.raises(ValueError):
        t.backward(y)


def test_held_place_takes_one_node_whose_parents_precede_it():
    t = Tape()
    h = t.leaf(np.ones((2, 3)))
    w = t.leaf(np.ones(3))
    at = t.hold()
    later = t.leaf(np.ones(3))
    assert t.num_slots == 12 and t.bytes_held() == 96
    with pytest.raises(ValueError):
        t.project(h, later, at=at)
    u = t.project(h, w, at=at)
    assert u.idx == at.idx and t.ops[u.idx] == "project" and t.num_slots == 14
    with pytest.raises(ValueError):
        t.project(h, w, at=at)


def test_bytes_held_counts_each_array_once():
    t = Tape()
    x = t.leaf(np.ones(4))
    y = x.tanh()              # its value and its partial
    s = t.tanh_slope(y)       # its value is y's partial
    y * s                     # its partials are the values of s and y
    assert t.bytes_held() == 4 * x.value.nbytes


def test_jet_rejects_order_above_three():
    with pytest.raises(UnsupportedJetOp):
        Jet([0.0] * 5)


def test_jet_of_constant_is_flat():
    # a direction the argument does not vary along: every higher coefficient
    # stays structurally zero
    j = jet_tanh(Jet([np.float64(1.1), None, None, None]))
    assert all(c is None for c in j.coeffs[1:])


def test_tape_topological_order():
    t = Tape()
    x = t.leaf(1.0)
    y = x.tanh() * x + 2.0
    for i, parents in enumerate(t.parents):
        for p in parents:
            assert p is None or p < i
