"""The jet tape records one node per tanh slope and none for x1 scalings, no
step tape records a multiplication by 1.0, each hidden primal layer is one
node that keeps no pre-activation, each hidden layer's top-order jet term is
one node that keeps no pre-activation either, and a value nothing reads is
not recorded.

The constructions these replaced stay here as references:
- ``old_construction``: ``1.0 - y * y`` as a ``mul`` + ``sub`` pair for every
  tanh slope a jet reads, and ``acc * (1.0 / k)`` at every order k of the jet
  recurrences, k = 1 included;
- ``two_node_layers``: each hidden primal layer as an ``affine`` node with the
  bias, holding the pre-activation, then a ``tanh`` node;
- ``eager_values``: every jet's coefficient 0 and every field's head recorded
  with the jet, whether read or not;
- ``affine_chain``: an ``affine`` node for every jet coefficient of a hidden
  layer, the top order included, and the top-order term formed from it as a
  ``mul`` by the order k, then a ``mul`` by the layer's slope.
Swapping one back in must give the same bits: jet coefficients, step losses
and step gradients alike.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpl import jets, net, trainer
from cpl.autodiff import Tape, Var
from cpl.jets import Jet, jet_tanh
from cpl.net import TIME, ArrayNet, NetField, NetworkConfig, TapeNet, init_params
from cpl.projection import AffineField, TargetInvariants
from cpl.sampler import spatial_cloud
from cpl.trainer import RngSet, TrainConfig, build_problem, plan_step, step_baseline, step_sdifp


def _old_over_k(acc, k):
    return None if acc is None else acc * (1.0 / k)


def _old_slope(y):
    return 1.0 - y * y


@contextlib.contextmanager
def old_construction():
    """Record jets as the mul + sub pair and the x1 nodes did."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_over_k", _old_over_k)
        mp.setattr(jets, "_tanh_slope", _old_slope)
        mp.setattr(net, "_tanh_slope", _old_slope)
        yield


def _two_node_layer(h, W, b):
    if not isinstance(h, Var):
        return np.tanh(h @ W.T + b)
    # the affine node with a bias: its value is the pre-activation, which its
    # backward never reads
    z = h.tape._push("affine", (h.idx, W.idx, b.idx), None, h.value @ W.value.T + b.value)
    return z.tanh()


@contextlib.contextmanager
def two_node_layers():
    """Record each hidden primal layer as an affine node, then a tanh node."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(net, "_layer", _two_node_layer)
        yield


@contextlib.contextmanager
def eager_values():
    """Record a field's head on its first jet and a projected jet's
    coefficient 0 with the jet."""
    lazy_jet = NetField.jet
    lazy_projected_jet = AffineField.jet

    def eager_jet(self, coord, order):
        self.value()
        return lazy_jet(self, coord, order)

    def eager_projected_jet(self, coord, order):
        jet = lazy_projected_jet(self, coord, order)
        jet.coeff(0)
        return jet

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AffineField, "jet", eager_projected_jet)
        mp.setattr(NetField, "jet", eager_jet)
        yield


def _chain_jet(self, coord, order):
    """NetField.jet with an affine node for every coefficient: the recurrence
    forms the top-order term from the top one."""
    hidden = self._primal()
    if order == 0:
        return Jet([None], self.value)
    B, in_dim = self.Xt.shape
    e = np.zeros((B, in_dim))
    e[:, in_dim - 1 if coord == TIME else coord] = 1.0
    x = [None, self.net.leaf(e)] + [None] * (order - 1)
    for layer, (W, _) in zip(hidden, self.net.hidden):
        if layer[1] is None:
            layer[1] = net._tanh_slope(layer[0])
        z = [None] + [None if c is None else net._affine(c, W) for c in x[1:]]
        x = jets.tanh_series(z, *layer)
    return Jet([None] + [None if c is None else net._head(c, self.net.head_w)
                         for c in x[1:]], self.value)


@contextlib.contextmanager
def affine_chain():
    """Record each hidden layer's top-order jet term as an affine node, a mul
    by the order and a mul by the slope."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetField, "jet", _chain_jet)
        yield


def _affine_readers(tape):
    """(index, ops of its readers) for every affine node."""
    readers = {}
    for i, par in enumerate(tape.parents):
        for p in par:
            if p is not None:
                readers.setdefault(p, []).append(tape.ops[i])
    return [(i, readers.get(i, [])) for i, op in enumerate(tape.ops) if op == "affine"]


def _preactivations(tape):
    """Indices of affine nodes whose only reader is a tanh node."""
    return [i for i, ops in _affine_readers(tape) if ops == ["tanh"]]


def _single_reader_affines(tape):
    """Indices of affine nodes that exactly one node reads."""
    return [i for i, ops in _affine_readers(tape) if len(ops) == 1]


def _is_subsequence(tape, ref):
    """Whether ref holds every recorded node of tape, with the same op and
    value bits, in the same order."""
    j = 0
    for op, value in zip(tape.ops, tape.values):
        if op == "held":
            continue
        while j < len(ref) and (ref.ops[j], ref.values[j].tobytes()) != (op, value.tobytes()):
            j += 1
        if j == len(ref):
            return False
        j += 1
    return True


def _bits(c):
    """The bytes of a coefficient, so that 0.0 and -0.0 differ."""
    return np.asarray(c.value if isinstance(c, Var) else c, dtype=np.float64).tobytes()


def _mul_by_one(tape, ndim=None):
    """Indices of mul nodes with a constant operand equal to 1.0 (and values
    of ndim dimensions, where given)."""
    out = []
    for i, (op, par, part) in enumerate(zip(tape.ops, tape.parents, tape.partials)):
        if op != "mul" or (ndim is not None and tape.values[i].ndim != ndim):
            continue
        for k in (0, 1):
            # mul's partial for one operand is the other operand's value
            if par[k] is None and np.size(part[1 - k]) == 1 and part[1 - k] == 1.0:
                out.append(i)
    return out


# -- jet coefficients of a network field ---------------------------------------


def _field_jets(taped):
    cfg = NetworkConfig(in_dim=3, hidden_layers=3, width=8, seed=13)
    p = init_params(cfg)
    X = np.random.default_rng(5).random((9, 2)) * 2.0
    tape = Tape() if taped else None
    fld = NetField(TapeNet(tape, p) if taped else ArrayNet(p), X, 0.35)
    got = {(coord, order): fld.jet(coord, order)
           for coord in (0, TIME) for order in range(4)}
    return tape, fld, got


def _field_jets_equal(taped, reference):
    """Every jet coefficient, and on a tape the gradient of a weighted sum of
    them, has the reference's bits; returns both tapes."""
    tape, fld, got = _field_jets(taped)
    with reference():
        ref_tape, ref_fld, ref = _field_jets(taped)
    for key, jet in got.items():
        assert len(jet.coeffs) == len(ref[key].coeffs) == key[1] + 1
        for k, (g, r) in enumerate(zip(jet.coeffs, ref[key].coeffs)):
            assert _bits(g) == _bits(r), (key, k)
    if taped:
        assert len(tape) < len(ref_tape) and tape.num_slots < ref_tape.num_slots
        weights = np.random.default_rng(6).random((2, 4, 4))

        def objective(t, jets_by_key):
            obj = 0.0
            for (coord, order), jet in jets_by_key.items():
                for k, c in enumerate(jet.coeffs):
                    obj = obj + t.sum(c) * weights[int(coord == TIME), order, k]
            return obj

        g = fld.net.grad(tape.backward(objective(tape, got)))
        g_ref = ref_fld.net.grad(ref_tape.backward(objective(ref_tape, ref)))
        assert g.tobytes() == g_ref.tobytes()
    return tape, ref_tape


@pytest.mark.parametrize("taped", [False, True])
def test_field_jets_bitwise_equal_old_construction(taped):
    _field_jets_equal(taped, old_construction)


@pytest.mark.parametrize("taped", [False, True])
def test_field_jets_bitwise_equal_affine_chain(taped):
    tape, ref_tape = _field_jets_equal(taped, affine_chain)
    if taped:
        # one top-order pre-activation per hidden layer of each jet of order >= 1,
        # but the first layer's above order 1, which is structurally zero
        assert len(_single_reader_affines(ref_tape)) == 2 * (3 + 2 + 2)
        assert _single_reader_affines(tape) == []


def test_one_slope_node_per_hidden_layer_whatever_the_jets():
    cfg = NetworkConfig(in_dim=3, hidden_layers=3, width=8, seed=13)
    tape = Tape()
    fld = NetField(TapeNet(tape, init_params(cfg)), np.random.default_rng(5).random((9, 2)), 0.35)
    fld.value()
    assert "slope" not in tape.ops
    for coord in (0, 1, TIME):
        for order in (1, 2, 3):
            fld.jet(coord, order)
            slopes = [i for i, op in enumerate(tape.ops) if op == "slope"]
            assert len(slopes) == 3
            assert all(tape.ops[tape.parents[i][0]] == "tanh_layer" for i in slopes)
    assert _mul_by_one(tape) == []


# -- training steps --------------------------------------------------------------

# targets only need a positive variance here; the comparison is bit for bit
TARGETS = TargetInvariants(c1_bar=lambda t: 0.2 + 0.1 * t, c2_bar=lambda t: 0.1 + 0.1 * t)

STEP_CASES = [
    dict(problem="advection1d", method="sdifp"),
    dict(problem="advection1d", method="discrete_proj", proj_support=16),
    dict(problem="advection1d", method="soft"),
    dict(problem="wave1d", method="vanilla"),
    dict(problem="kdv1d", method="vanilla"),
    dict(problem="reaction_diffusion1d", method="vanilla"),
    dict(problem="fokker_planck_linear_nd", dim=2, method="sdifp", estimator="ds_uge",
         size_i=2, size_j=2),
    dict(problem="sine_gordon_nd", dim=2, method="sdifp", estimator="ds_uge",
         size_i=2, size_j=2),
    dict(problem="advection2d", method="sdifp", estimator="soo", size_i=2),
]


class RecordingTape(Tape):
    made = []

    def __init__(self):
        super().__init__()
        self.made.append(self)


def _step(cfg, monkeypatch):
    RecordingTape.made = []
    monkeypatch.setattr(trainer, "Tape", RecordingTape)
    prob = build_problem(cfg)
    params = init_params(NetworkConfig(in_dim=prob.d + 1, hidden_layers=cfg.hidden_layers,
                                       width=cfg.width, seed=cfg.seed))
    plan = plan_step(prob, cfg, RngSet(cfg.seed))
    if cfg.method == "sdifp":
        cloud = spatial_cloud(cfg.cloud_m, prob.domain, skip=0).points
        grad, diag, _ = step_sdifp(params, prob, cfg, plan, cloud, TARGETS)
    else:
        grad, diag = step_baseline(params, prob, cfg, plan, targets=TARGETS)
    (tape,) = RecordingTape.made
    return grad, diag, tape


@pytest.mark.parametrize("case", STEP_CASES, ids=lambda c: f"{c['problem']}-{c['method']}-"
                         f"{c.get('estimator', 'full')}")
def test_step_bitwise_equal_old_construction(case, monkeypatch):
    cfg = TrainConfig(batch_n=8, cloud_m=128, n_time_slices=2, n_ic=8, n_bc=8,
                      width=6, hidden_layers=2, seed=3, **case).validate()
    grad, diag, tape = _step(cfg, monkeypatch)
    with old_construction():
        ref_grad, ref_diag, ref_tape = _step(cfg, monkeypatch)
    assert grad.tobytes() == ref_grad.tobytes()
    assert np.float64(diag.loss).tobytes() == np.float64(ref_diag.loss).tobytes()
    assert diag.tape_nodes < ref_diag.tape_nodes
    # no x1.0 node anywhere on the step tape: jets, residual terms and loss weights
    assert _mul_by_one(tape) == []
    # every network jet coefficient is a (B, width) node: the reference really
    # is the old jet construction
    assert _mul_by_one(ref_tape, ndim=2) != []
    assert _preactivations(tape) == []


@pytest.mark.parametrize("case", STEP_CASES, ids=lambda c: f"{c['problem']}-{c['method']}-"
                         f"{c.get('estimator', 'full')}")
def test_step_bitwise_equal_affine_chain(case, monkeypatch):
    cfg = TrainConfig(batch_n=8, cloud_m=128, n_time_slices=2, n_ic=8, n_bc=8,
                      width=6, hidden_layers=2, seed=3, **case).validate()
    grad, diag, tape = _step(cfg, monkeypatch)
    with affine_chain():
        ref_grad, ref_diag, ref_tape = _step(cfg, monkeypatch)
    assert grad.tobytes() == ref_grad.tobytes()
    assert np.float64(diag.loss).tobytes() == np.float64(ref_diag.loss).tobytes()
    assert diag.tape_nodes < ref_diag.tape_nodes
    # the reference keeps each top-order pre-activation for its one reader;
    # the step tape keeps no affine node that only one node reads
    assert _single_reader_affines(ref_tape) != []
    assert _single_reader_affines(tape) == []


@pytest.mark.parametrize("case", STEP_CASES, ids=lambda c: f"{c['problem']}-{c['method']}-"
                         f"{c.get('estimator', 'full')}")
def test_step_bitwise_equal_eager_values(case, monkeypatch):
    cfg = TrainConfig(batch_n=8, cloud_m=128, n_time_slices=2, n_ic=8, n_bc=8,
                      width=6, hidden_layers=2, seed=3, **case).validate()
    grad, diag, tape = _step(cfg, monkeypatch)
    with eager_values():
        ref_grad, ref_diag, ref_tape = _step(cfg, monkeypatch)
    assert grad.tobytes() == ref_grad.tobytes()
    assert np.float64(diag.loss).tobytes() == np.float64(ref_diag.loss).tobytes()
    # every boundary field's value goes unread
    assert diag.tape_nodes < ref_diag.tape_nodes
    # nothing recorded that the eager tape lacks, and a head read late sits
    # in its held place
    assert _is_subsequence(tape, ref_tape)


def test_criterion_10_config_tape_nodes_pinned(monkeypatch):
    """The step tape of `cpl train` at the configuration of acceptance criterion 10."""
    cfg = TrainConfig(problem="advection1d", method="sdifp", batch_n=25, cloud_m=2000,
                      n_time_slices=2, width=16, hidden_layers=2, seed=11).validate()
    assert _step(cfg, monkeypatch)[1].tape_nodes == 13_070
    with affine_chain(), two_node_layers(), eager_values():
        assert _step(cfg, monkeypatch)[1].tape_nodes == 21_908
        with old_construction():
            assert _step(cfg, monkeypatch)[1].tape_nodes == 28_404


# each method's step tape at one small configuration, and the same step with
# affine chains, two-node layers and eager values; a count moves only when a
# step records one node more or one fewer
TAPE_PINS = [
    pytest.param(dict(method="vanilla"), 1_013, 1_605, id="vanilla"),
    pytest.param(dict(method="soft"), 1_050, 1_634, id="soft"),
    pytest.param(dict(method="discrete_proj", proj_mode="grid", proj_support=16), 1_883, 3_103,
                 id="discrete-grid"),
    pytest.param(dict(method="discrete_proj", proj_support=16), 1_883, 3_103,
                 id="discrete-cloud"),
    pytest.param(dict(method="discrete_proj", proj_support=16, proj_backprop=False), 1_053,
                 1_693, id="discrete-no-backprop"),
    pytest.param(dict(method="sdifp"), 1_098, 1_732, id="sdifp-full"),
    pytest.param(dict(method="sdifp", estimator="ds_uge", size_i=1, size_j=1), 970, 1_492,
                 id="sdifp-ds_uge"),
    pytest.param(dict(method="sdifp", estimator="soo", size_i=1), 970, 1_492, id="sdifp-soo"),
]


def _pin_config(case):
    return TrainConfig(problem="advection1d", batch_n=8, cloud_m=128, n_time_slices=2, n_ic=8,
                       n_bc=8, width=6, hidden_layers=2, seed=1, **case).validate()


@pytest.mark.parametrize("case,slots,ref_slots", TAPE_PINS)
def test_step_tape_nodes_pinned(case, slots, ref_slots, monkeypatch):
    cfg = _pin_config(case)
    _, diag, tape = _step(cfg, monkeypatch)
    assert diag.tape_nodes == tape.num_slots == slots
    assert _mul_by_one(tape) == []
    # only ds_uge evaluates a detached forward factor, on each of the two slices
    assert diag.value_evals == (2 if case.get("estimator") == "ds_uge" else 0)
    with affine_chain(), two_node_layers(), eager_values():
        assert _step(cfg, monkeypatch)[1].tape_nodes == ref_slots


@pytest.mark.parametrize("method,slots", [("sdifp", 183_084), ("discrete_proj", 313_307)])
def test_desk_step_tape_nodes_pinned(method, slots, monkeypatch):
    """The step tape at the flags of the benchmark's desk workloads, whose
    largest step tape the benchmark reports as its slot count."""
    cfg = TrainConfig(problem="advection1d", method=method, width=64, hidden_layers=4,
                      n_time_slices=4, batch_n=100, cloud_m=10_000, seed=1).validate()
    assert _step(cfg, monkeypatch)[1].tape_nodes == slots


@pytest.mark.parametrize("case,slots,ref_slots", TAPE_PINS)
def test_one_node_layers_bitwise_equal_two_node_layers(case, slots, ref_slots, monkeypatch):
    cfg = _pin_config(case)
    grad, diag, tape = _step(cfg, monkeypatch)
    with two_node_layers():
        ref_grad, ref_diag, ref_tape = _step(cfg, monkeypatch)
    assert grad.tobytes() == ref_grad.tobytes()
    assert np.float64(diag.loss).tobytes() == np.float64(ref_diag.loss).tobytes()
    pre = _preactivations(ref_tape)
    assert pre and _preactivations(tape) == []
    # node for node the same tape without the pre-activations: every primal
    # value, jet coefficient and loss term has the same bits
    kept = [i for i in range(len(ref_tape)) if i not in set(pre)]
    assert len(kept) == len(tape)
    for i, r in enumerate(kept):
        op = ref_tape.ops[r]
        if op == "tanh" and ref_tape.parents[r][0] in pre:
            op = "tanh_layer"
            assert tape.partials[i][0].tobytes() == ref_tape.partials[r][0].tobytes()
        assert tape.ops[i] == op
        assert tape.values[i].tobytes() == ref_tape.values[r].tobytes()
    assert ref_tape.num_slots - tape.num_slots == sum(ref_tape.values[i].size for i in pre) > 0
    assert ref_tape.bytes_held() - tape.bytes_held() == sum(ref_tape.values[i].nbytes
                                                            for i in pre)


# -- property tests at edge values ---------------------------------------------

EDGES = [0.0, -0.0, 25.0, -25.0, 40.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]
values = st.one_of(st.sampled_from(EDGES),
                   st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False))
arrays = st.lists(values, min_size=3, max_size=3).map(lambda v: np.array(v))
# a coefficient is structurally zero (None) or an array of edge values
coeff = st.one_of(st.none(), arrays)


@st.composite
def jet_inputs(draw):
    order = draw(st.integers(1, 3))
    return [draw(arrays)] + [draw(coeff) for _ in range(order)]


def _series(x):
    return jet_tanh(Jet(x)).coeffs


def _taped_series(x, weights):
    """The series over tape leaves: values, leaf adjoints of a weighted sum of
    the outputs, and the x1.0 nodes the series recorded."""
    tape = Tape()
    leaves = [None if c is None else tape.leaf(c) for c in x]
    out = _series(leaves)
    by_one = _mul_by_one(tape)
    obj = 0.0
    for k, c in enumerate(out):
        if isinstance(c, Var):
            obj = obj + tape.sum(c * weights[k % len(weights)])
    adj = tape.backward(obj) if isinstance(obj, Var) else [None] * len(tape)
    return ([None if c is None else c.value for c in out],
            [None if v is None else adj[v.idx] for v in leaves], by_one)


def _same(a, b):
    assert len(a) == len(b)
    for u, v in zip(a, b):
        assert (u is None) == (v is None)
        if u is not None:
            assert _bits(u) == _bits(v)


@settings(max_examples=60, deadline=None)
@given(x=jet_inputs(), weights=st.lists(values, min_size=1, max_size=4))
def test_tanh_series_bitwise_equal_old_construction(x, weights):
    with np.errstate(all="ignore"):
        got = _series(x)
        vals, adj, by_one = _taped_series(x, weights)
        with old_construction():
            ref = _series(x)
            ref_vals, ref_adj, _ = _taped_series(x, weights)
    _same(got, ref)
    _same(vals, ref_vals)
    _same(adj, ref_adj)
    assert by_one == []


def _slope_sweep(x, w_slope, w_before, w_after, slope):
    """Sweep a tape that reads y = tanh(x) through its slope and, optionally,
    through nodes recorded before and after the slope node."""
    tape = Tape()
    xv = tape.leaf(x)
    y = xv.tanh()
    terms = []
    if w_before is not None:
        terms.append(tape.sum(y * w_before))
    s = slope(y)
    terms.append(tape.sum(s * w_slope))
    if w_after is not None:
        # swept first: y already holds an adjoint when the slope node is swept
        terms.append(tape.sum(y * w_after))
    root = terms[0]
    for term in terms[1:]:
        root = root + term
    adj = tape.backward(root)
    return s.value, adj[xv.idx], adj[y.idx]


@settings(max_examples=150, deadline=None)
@given(x=arrays, w_slope=arrays, w_before=st.one_of(st.none(), arrays),
       w_after=st.one_of(st.none(), arrays))
def test_tanh_slope_backward_bitwise_equal_mul_sub(x, w_slope, w_before, w_after):
    with np.errstate(all="ignore"):
        got = _slope_sweep(x, w_slope, w_before, w_after, lambda y: y.tape.tanh_slope(y))
        ref = _slope_sweep(x, w_slope, w_before, w_after, _old_slope)
    _same(got, ref)


def _chain_top(h, W, k, w):
    z = h.tape.affine(h, W)
    return (z if k == 1 else float(k) * z) * w


def _top_sweep(h, W, w, k, weights, w_before, w_after, top):
    """Sweep a tape that reads w through a top-order term and, optionally,
    through nodes recorded before and after it: the term's value and the
    adjoints of h, W and w."""
    tape = Tape()
    hv, Wv, wv = tape.leaf(h), tape.leaf(W), tape.leaf(w)
    terms = []
    if w_before is not None:
        terms.append(tape.sum(wv * w_before))
    y = top(hv, Wv, k, wv)
    terms.append(tape.sum(y * weights))
    if w_after is not None:
        # swept first: w already holds an adjoint when the term is swept
        terms.append(tape.sum(wv * w_after))
    root = terms[0]
    for term in terms[1:]:
        root = root + term
    adj = tape.backward(root)
    return y.value, adj[hv.idx], adj[Wv.idx], adj[wv.idx]


def matrices(rows, cols):
    return st.lists(st.lists(values, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(np.array)


@settings(max_examples=150, deadline=None)
@given(h=matrices(2, 3), W=matrices(2, 3), w=matrices(2, 2), k=st.sampled_from([1, 2, 3]),
       weights=matrices(2, 2), w_before=st.one_of(st.none(), matrices(2, 2)),
       w_after=st.one_of(st.none(), matrices(2, 2)))
def test_affine_mul_bitwise_equal_three_node_chain(h, W, w, k, weights, w_before, w_after):
    with np.errstate(all="ignore"):
        got = _top_sweep(h, W, w, k, weights, w_before, w_after,
                         lambda h, W, k, w: h.tape.affine_mul(h, W, k, w))
        ref = _top_sweep(h, W, w, k, weights, w_before, w_after, _chain_top)
    _same(got, ref)


def test_affine_mul_keeps_no_preactivation():
    tape = Tape()
    h, W = tape.leaf(np.ones((4, 3))), tape.leaf(np.full((5, 3), 0.5))
    y = tape.affine_mul(h, W, 2, tape.leaf(np.full((4, 5), 0.25)))
    assert y.value.tobytes() == np.full((4, 5), 0.75).tobytes()
    assert tape.num_slots == 12 + 15 + 20 + 20 and len(tape) == 4


def test_tanh_slope_shares_the_tanh_partial():
    tape = Tape()
    y = tape.leaf(np.array([0.0, -0.0, 0.5, 25.0])).tanh()
    s = tape.tanh_slope(y)
    assert s.value is tape.partials[y.idx][0]
    assert s.value.tobytes() == (1.0 - y.value * y.value).tobytes()
    assert s.value[-1] == 0.0
    with pytest.raises(ValueError):
        tape.tanh_slope(s)
