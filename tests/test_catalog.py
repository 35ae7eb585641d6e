import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from csorbit import (
    ModelStructureError,
    ModelValidationError,
    catalog_names,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
    read_complex_matrix,
    run_checks,
)
from csorbit.catalog import MAX_DIM_REP, _build_su3, _su3_defining_matrices


def test_catalog_names():
    assert catalog_names() == ["heisenberg", "su11", "su2", "su3"]


def test_su2_entry(su2_one):
    assert su2_one.dim_rep == 3
    assert su2_one.n == 1
    assert su2_one.spec.basis_labels == ("J0", "J+", "J-")
    assert np.allclose(np.diag(su2_one.rep.matrices[0]), [1, 0, -1])
    assert su2_one.measure.kind == "fubini-study"


def test_heisenberg_entry():
    m = load_model("heisenberg", trunc=8)
    assert m.dim_rep == 9
    assert m.rep.truncated and m.rep.trunc_margin == 3
    # a+ ladder amplitudes sqrt(n+1)
    adag = m.rep.matrices[1]
    assert adag[5, 4] == pytest.approx(math.sqrt(5))
    assert m.measure.kind == "gaussian"


def test_su11_entry(su11_k1):
    k0, kp, km = su11_k1.rep.matrices
    assert k0[3, 3] == pytest.approx(1 + 3)
    assert kp[4, 3] == pytest.approx(math.sqrt(4 * (2 + 3)))
    assert su11_k1.measure.kind == "bergman-disk"
    assert su11_k1.measure.radius == 1.0


def test_su3_dimensions():
    assert load_model("su3", p=1, q=1).dim_rep == 8
    assert load_model("su3", p=2, q=1).dim_rep == 15
    m = load_model("su3", p=1, q=2)
    assert m.dim_rep == 15
    assert m.grading == (1, 1, 2)
    assert m.chart == "product"


def _su3_tensor_reference(p, q):
    """su3(p, q) in the full tensor power 3^(x p) x 3bar^(x q), closed and
    projected as the catalog does.  Needs 3^(2(p+q)) complex entries per
    generator: keep p + q <= 6."""
    gens = _su3_defining_matrices()
    factors = [gens] * p + [[-m.T for m in gens]] * q
    big = []
    for g in range(8):
        total = 0
        for slot in range(p + q):
            term = np.ones((1, 1))
            for l, fac in enumerate(factors):
                term = np.kron(term, fac[g] if l == slot else np.eye(3))
            total = total + term
        big.append(total)
    v0 = np.zeros(3 ** (p + q), dtype=complex)
    v0[int("0" * p + "2" * q, 3)] = 1.0  # fundamental factors at e0, dual at e2
    basis, queue = [v0], [v0]
    while queue:
        v = queue.pop(0)
        for f in (big[5], big[6]):
            Q = np.column_stack(basis)
            w = f @ v
            w = w - Q @ (Q.conj().T @ w)
            w = w - Q @ (Q.conj().T @ w)
            if np.linalg.norm(w) > 1e-10:
                basis.append(w / np.linalg.norm(w))
                queue.append(basis[-1])
    Q = np.column_stack(basis)
    wt1, wt2 = (np.real(np.diag(Q.conj().T @ big[h] @ Q)) for h in (0, 1))
    level = np.rint((p - wt1) + (q - wt2)).astype(int)
    order = sorted(range(len(basis)), key=lambda i: (level[i], -round(wt1[i]), -round(wt2[i]), i))
    Q = Q[:, order]
    return [Q.conj().T @ g @ Q for g in big]


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1)])
def test_su3_matches_tensor_power_reference(p, q):
    model = _build_su3(p, q)
    want = _su3_tensor_reference(p, q)
    assert model.dim_rep == len(want[0]) == (p + 1) * (q + 1) * (p + q + 2) // 2
    for got, ref in zip(model.rep.matrices, want):
        assert np.max(np.abs(got - ref)) <= 1e-13


def test_su3_build_memory_is_small():
    tracemalloc.start()
    try:
        _build_su3(3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20  # the 3^6 tensor power took 82 MiB


def test_su3_44_passes_checks():
    model = load_model("su3", p=4, q=4)
    assert model.dim_rep == 125
    records = {r["check"]: r for r in run_checks(model)}
    assert all(records[c]["status"] == "skip" for c in ("parseval", "reproducing", "adjoint"))
    rest = [r for c, r in records.items() if c not in ("parseval", "reproducing", "adjoint")]
    assert len(rest) == 9 and all(r["status"] == "pass" for r in rest)
    assert records["degree"]["residual"] == 3.0


def test_su3_unitarity(su3_11):
    mats = su3_11.rep.matrices
    labels = su3_11.spec.basis_labels
    pairs = su3_11.adjoint_pairs
    for i, lab in enumerate(labels):
        assert np.max(np.abs(mats[i].conj().T - mats[pairs[i]])) < 1e-12


def test_invalid_parameters():
    with pytest.raises(ModelStructureError):
        load_model("su2", j=0.3)
    with pytest.raises(ModelStructureError):
        load_model("su2", j=0)
    for j in (math.nan, math.inf, -math.inf):
        with pytest.raises(ModelStructureError):
            load_model("su2", j=j)
    with pytest.raises(ModelStructureError):
        load_model("su11", k=0.4)
    with pytest.raises(ModelStructureError):
        load_model("su3", p=0, q=1)
    with pytest.raises(ModelStructureError):
        load_model("heisenberg", trunc=-1)
    with pytest.raises(ModelStructureError):
        load_model("su2", q=1)  # not a su2 parameter


def test_dimension_bound_admits_its_own_size():
    # the sizes above the bound are refused by the CLI tests, which run them
    # under a memory limit
    assert load_model("heisenberg", trunc=MAX_DIM_REP - 1, validate=False).dim_rep == MAX_DIM_REP
    assert load_model("su2", j=(MAX_DIM_REP - 1) / 2, validate=False).dim_rep == MAX_DIM_REP


def test_validation_error_names_only_the_failed_metrics(tmp_path):
    # commutator_global reads 9.0 on every heisenberg model but bounds
    # nothing; only the perturbed block commutator fails
    data = model_to_dict(load_model("heisenberg"))
    data["rep"]["matrices"][0][0][1][0] += 1e-6
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelValidationError) as info:
        load_model(path)
    assert re.findall(r"'(\w+)':", str(info.value)) == ["commutator_block"]


def test_unknown_model_name():
    with pytest.raises(ModelStructureError):
        load_model("so5")


def test_model_file_roundtrip(tmp_path, su2_one):
    path = tmp_path / "su2.json"
    dump_model(su2_one, path)
    again = load_model(path)
    assert again.spec.basis_labels == su2_one.spec.basis_labels
    assert np.allclose(again.rep.matrices[2], su2_one.rep.matrices[2])
    assert again.measure.kind == "fubini-study"
    assert again.adjoint_pairs == su2_one.adjoint_pairs


def test_model_file_roundtrip_su3(tmp_path, su3_11):
    path = tmp_path / "su3.json"
    dump_model(su3_11, path)
    again = load_model(path)
    assert again.chart == "product"
    assert again.n == 3
    assert again.measure is None


def test_model_file_roundtrip_preserves_truncation(tmp_path, heis10):
    path = tmp_path / "heis.json"
    dump_model(heis10, path)
    again = load_model(path)
    assert again.rep.truncated is True
    assert again.rep.trunc_margin == 3
    assert again.rep.block_dim == 8
    assert again.measure.kind == "gaussian"


def test_model_dict_contains_schema_fields(su2_half):
    data = model_to_dict(su2_half)
    for key in ("dim", "basis_labels", "structure", "rep", "e0_index", "mprime", "grading", "measure"):
        assert key in data
    assert data["structure"][0] == [0, 1, 1, 1.0, 0.0]
    # complex entries encoded as [re, im]
    assert data["rep"]["matrices"][0][0][0] == [0.5, 0.0]
    assert model_from_dict(data).dim_rep == 2


def test_broken_model_file_rejected(tmp_path, su2_half):
    data = model_to_dict(su2_half)
    del data["grading"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelStructureError):
        load_model(path)

    # structurally fine but semantically wrong: scaled J- breaks commutators
    data = model_to_dict(su2_half)
    data["rep"]["matrices"][2][1][0] = [2.0, 0.0]
    path2 = tmp_path / "invalid.json"
    path2.write_text(json.dumps(data))
    with pytest.raises(ModelValidationError):
        load_model(path2)

    path3 = tmp_path / "notjson.json"
    path3.write_text("{nope")
    with pytest.raises(ModelStructureError):
        load_model(path3)


@pytest.mark.parametrize("name,param", [("su2", "j"), ("su11", "k")])
def test_measure_without_its_parameter_rejected(tmp_path, name, param):
    data = model_to_dict(load_model(name))
    del data["measure"]["params"][param]
    path = tmp_path / "noparam.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelStructureError, match=f"needs parameter '{param}'"):
        load_model(path)


def test_group_element_matrix_file(tmp_path):
    path = tmp_path / "g.json"
    g = np.array([[1.0, 0.5j], [0.0, 1.0]])
    path.write_text(json.dumps([[[x.real, x.imag] for x in row] for row in g]))
    back = read_complex_matrix(path)
    assert np.array_equal(back, g)
    bad = tmp_path / "rect.json"
    bad.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]]]))
    with pytest.raises(ModelStructureError):
        read_complex_matrix(bad)


def test_su3_closure_threshold_scales_with_the_module():
    # an absolute 1e-10 kept rounding residues as states here (434 of 420)
    assert _build_su3(6, 7).dim_rep == 420
