import json
import math

import numpy as np
import pytest

from phidual.cli import main
from phidual.serialize import (
    InstanceFormatError,
    dumps_canonical,
    load_instance,
    parse_instance,
)

from oracles import table_2d_doc

INSTANCE_DOC = {
    "dimension": 1,
    "f": {
        "type": "piecewise-quadratic",
        "label": "f",
        "pieces": [{"interval": ["-inf", "+inf"], "coeffs": [2.0, 0.0, 0.0]}],
    },
    "g": {
        "type": "piecewise-quadratic",
        "label": "g",
        "pieces": [{"interval": ["-inf", "+inf"], "coeffs": [-1.0, 0.0, 0.0]}],
    },
    "box": {"lower": [-10.0], "upper": [10.0], "samples": [2001]},
    "phi": {"kind": "lsc-quadratic", "a_max": 8.0, "v_max": 32.0, "grid": [65, 65]},
}


def _write_instance(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_instance_roundtrip():
    inst = parse_instance(INSTANCE_DOC)
    assert inst.f(1.0) == 2.0 and inst.g(2.0) == -4.0
    assert inst.phi.kind == "lsc-quadratic"


def test_parse_rejects_missing_fields():
    with pytest.raises(InstanceFormatError):
        parse_instance({"dimension": 1})


def test_parse_tabulated_function(tmp_path):
    n = 101
    xs = [(-2.0 + 4.0 * i / (n - 1)) for i in range(n)]
    doc = {
        "dimension": 1,
        "f": {"type": "tabulated", "label": "t", "table": {"values": [x * x for x in xs]}},
        "g": {
            "type": "piecewise-quadratic",
            "pieces": [{"interval": ["-inf", "+inf"], "coeffs": [0.0, 0.0, 0.0]}],
        },
        "box": {"lower": [-2.0], "upper": [2.0], "samples": [n]},
        "phi": {"kind": "affine", "v_max": 8.0, "grid": [33]},
    }
    inst = parse_instance(doc)
    assert inst.f(1.0) == pytest.approx(1.0)
    path = _write_instance(tmp_path, doc)
    assert load_instance(path).f(0.0) == 0.0


def test_load_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 1,\n  "oops"\n}')
    with pytest.raises(InstanceFormatError) as err:
        load_instance(str(path))
    assert "line" in str(err.value) and "column" in str(err.value)


def test_cli_dual_report_catalog(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["dual-report", "--catalog", "example-6.1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["values"]["val_P"] == 0.0
    assert doc["values"]["val_CD"] == 0.0
    assert doc["values"]["val_ICD"] == "-inf"
    assert doc["chain_ok"] is True


def test_cli_dual_report_fenchel_all_zero(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["dual-report", "--catalog", "fenchel-quadratic", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(v == 0.0 for v in doc["values"].values())


def test_cli_dual_report_instance_file(tmp_path):
    path = _write_instance(tmp_path, INSTANCE_DOC)
    out = tmp_path / "rep.json"
    assert main(["dual-report", "--instance", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"]["val_P"] == 0.0


def test_cli_dual_report_bad_instance_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["dual-report", "--instance", path.as_posix()]) == 1
    assert "line" in capsys.readouterr().err


def test_cli_rejects_nan_in_table(tmp_path, capsys):
    table = [0.0] * 2001
    table[7] = math.nan  # json.dumps writes the NaN literal json.loads accepts
    doc = dict(INSTANCE_DOC, g={"type": "tabulated", "table": {"values": table}})
    assert main(["dual-report", "--instance", _write_instance(tmp_path, doc)]) == 1
    assert "NaN" in capsys.readouterr().err


def test_cli_dual_report_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["dual-report", "--catalog", "kkt-example", "--out", str(a)])
    main(["dual-report", "--catalog", "kkt-example", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_dual_report_csv(tmp_path):
    out = tmp_path / "rep.csv"
    code = main(
        ["dual-report", "--catalog", "example-6.1", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,value,attainer,method,truncation"
    assert len(lines) == 7
    assert any("val_ICD,-inf" in ln for ln in lines)


def test_cli_kkt_verify_exit_codes(tmp_path):
    assert (
        main(["kkt-verify", "--catalog", "kkt-example", "--x", "2", "--a", "1",
              "--w", "0", "--out", str(tmp_path / "c.json")])
        == 0
    )
    assert (
        main(["kkt-verify", "--catalog", "kkt-example", "--x", "0", "--a", "1",
              "--w", "0", "--out", str(tmp_path / "c0.json")])
        == 3
    )
    assert main(["kkt-verify", "--catalog", "kkt-example"]) == 1  # missing --x


def test_cli_kkt_verify_writes_certificate(tmp_path):
    out = tmp_path / "cert.json"
    main(["kkt-verify", "--catalog", "kkt-example", "--x", "2", "--a", "1",
          "--w", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["optimal"] is True
    assert doc["primal_value"] == -2.0 and doc["dual_value"] == -2.0


def test_cli_gap_analyze_quadratic_pair(tmp_path):
    out = tmp_path / "gap.json"
    assert main(["gap-analyze", "--catalog", "example-6.1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    ga = doc["gap_analysis"]
    assert ga["condition_sum"] is False
    assert ga["condition_intersection"] is True
    assert ga["contradiction"] is False
    assert all(item["found"] for item in ga["intersection"])


def test_cli_gap_analyze_convex_pair(tmp_path):
    out = tmp_path / "gap.json"
    assert main(["gap-analyze", "--catalog", "fenchel-quadratic", "--out", str(out)]) == 0
    ga = json.loads(out.read_text())["gap_analysis"]
    assert ga["condition_sum"] is True and ga["condition_intersection"] is True


def test_cli_gap_analyze_gap_instance(tmp_path):
    out = tmp_path / "gap.json"
    assert main(["gap-analyze", "--catalog", "gap-instance", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    ga = doc["gap_analysis"]
    assert ga["condition_sum"] is False
    assert all(not item["found"] for item in ga["intersection"])
    assert doc["gaps"]["cd"] > 0.5


def test_cli_conjugate_values(capsys):
    assert main(["conjugate", "--catalog", "example-6.1", "--which", "g",
                 "--a", "2", "--b", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0.25"
    assert main(["conjugate", "--catalog", "example-6.1", "--which", "g",
                 "--a", "1", "--b", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["conjugate", "--catalog", "example-6.1", "--which", "g",
                 "--a", "0.5", "--b", "0"]) == 0
    assert capsys.readouterr().out.strip() == "+inf"


def test_cli_unknown_catalog_exits_1(capsys):
    assert main(["dual-report", "--catalog", "nope"]) == 1
    assert "unknown catalog entry" in capsys.readouterr().err


def test_cli_box_override(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["dual-report", "--catalog", "example-6.1", "--box=-5,5",
                 "--grid", "1001", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["instance"]["box"]["lower"] == [-5.0]
    assert doc["instance"]["box"]["samples"] == [1001]


def test_canonical_dump_encodes_infinities():
    text = dumps_canonical({"a": math.inf, "b": -math.inf, "c": 0.1 + 0.2})
    doc = json.loads(text)
    assert doc["a"] == "+inf" and doc["b"] == "-inf"
    assert doc["c"] == 0.3  # 12 significant digits


def test_cli_conjugate_left_transform(capsys):
    # left conjugate of f = 2x^2 at (1, 0): sup(-2x^2 + x^2) = 0
    assert main(["conjugate", "--catalog", "example-6.1", "--which", "f",
                 "--a", "1", "--b", "0", "--left"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    # and at (0, 2): sup(-2x^2 - 2x) = 1/2
    assert main(["conjugate", "--catalog", "example-6.1", "--which", "f",
                 "--a", "0", "--b", "2", "--left"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_cli_dual_report_tabulated_instance_is_chain_coherent(tmp_path):
    # a tabulated member pins every quantifier to the grid; the chain must
    # come back coherent (exit 0), not tripped by sub-grid interpolation dips
    import numpy as np

    n = 801
    xs = np.linspace(-10, 10, n)
    doc = {
        "dimension": 1,
        "f": {
            "type": "piecewise-quadratic",
            "label": "f",
            "pieces": [{"interval": ["-inf", "+inf"], "coeffs": [2.0, 0.0, 0.0]}],
        },
        "g": {"type": "tabulated", "label": "g", "table": {"values": list(-xs * xs)}},
        "box": {"lower": [-10.0], "upper": [10.0], "samples": [n]},
        "phi": {"kind": "lsc-quadratic", "a_max": 8.0, "v_max": 32.0, "grid": [33, 33]},
    }
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    assert main(["dual-report", "--instance", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["chain_ok"] is True
    assert rep["values"]["val_P"] == 0.0 and rep["values"]["val_CD"] == 0.0


def test_cli_gap_analyze_rejects_bad_lists(capsys):
    assert main(["gap-analyze", "--catalog", "example-6.1",
                 "--alpha-list", "0.5"]) == 1
    assert "must be below" in capsys.readouterr().err
    assert main(["gap-analyze", "--catalog", "fenchel-quadratic",
                 "--eps-list=-1"]) == 1
    assert ">= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["dual-report", "--catalog", "kkt-example", "--tol", "nan"],
        ["dual-report", "--catalog", "kkt-example", "--tol", "inf"],
        ["gap-analyze", "--catalog", "gap-instance", "--eps-list", "nan"],
        ["gap-analyze", "--catalog", "gap-instance", "--alpha-list", "nan"],
        ["dual-report", "--catalog", "fenchel-quadratic", "--a-max", "nan"],
        ["dual-report", "--instance", "a_max=NaN"],
    ],
    ids=["tol-nan", "tol-inf", "eps-nan", "alpha-nan", "a-max-nan", "doc-a-max-nan"],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, argv):
    # each of these once ran to exit 0: a NaN tolerance passes every chain
    # comparison, and NaN levels or bounds were printed into the report
    if argv[-1] == "a_max=NaN":
        phi = {"kind": "affine", "a_max": math.nan, "v_max": 32.0, "grid": [65]}
        doc = dict(INSTANCE_DOC, phi=phi)
        argv = [*argv[:-1], _write_instance(tmp_path, doc)]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out.json").exists()


def _motivation_doc():
    """A convex pair on which the bridge once reported a lower val(LP) than
    the chain, and hence a false primal-biconjugate equality."""

    def pw(lo, hi, a2, a1, a0):
        return {"type": "piecewise-quadratic", "pieces": [{"interval": [lo, hi], "coeffs": [a2, a1, a0]}]}

    return {
        "dimension": 1,
        "f": pw(-4.0, 5.0, 2.0, -1.2751546394263742, 1.327435133028918),
        "g": pw("-inf", "+inf", 1.0, -0.8660712073486767, -0.31704933680946423),
        "box": {"lower": [-10.0], "upper": [10.0], "samples": [2001]},
        "phi": {"kind": "affine", "a_max": 8.0, "v_max": 32.0, "grid": [65]},
    }


@pytest.mark.parametrize(
    "source",
    ["motivation", "table-2d", "cone-indicator-1d", "example-6.1", "fenchel-quadratic",
     "gap-instance", "kkt-example"],
)
def test_cli_gap_analyze_reports_one_val_lp(tmp_path, source):
    docs = {"motivation": _motivation_doc, "table-2d": table_2d_doc}
    if source in docs:
        args = ["--instance", _write_instance(tmp_path, docs[source]())]
    else:
        args = ["--catalog", source]
    out = tmp_path / "gap.json"
    assert main(["gap-analyze", *args, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    ga = doc["gap_analysis"]
    assert ga["val_LP"] == doc["values"]["val_LP"]
    assert ga["val_P"] == doc["values"]["val_P"]
    if source == "motivation":
        assert ga["primal_biconjugate_equality"] is True
        assert ga["condition_sum"] and not ga["contradiction"]


@pytest.mark.parametrize("source", ["instance", "catalog"])
def test_cli_zero_bound_overrides_apply_to_every_source(tmp_path, capsys, source):
    # --a-max 0 and --v-max 0 are overrides, not absent ones: an instance
    # file once kept its own a_max, and its v_max escaped the bound check
    if source == "instance":
        args = ["--instance", _write_instance(tmp_path, INSTANCE_DOC)]
    else:
        args = ["--catalog", "kkt-example"]
    out = tmp_path / "rep.json"
    assert main(["dual-report", *args, "--a-max", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["truncation"]["a_max"] == 0.0
    assert main(["dual-report", *args, "--v-max", "0"]) == 1
    assert "truncation bounds" in capsys.readouterr().err


def _table_cases():
    """The tables of every golden twin, then mixed lists."""
    from phidual import catalog_names, get_entry

    from oracles import twin_document

    for name in catalog_names():
        doc = twin_document(get_entry(name).build())
        for key in ("f", "g"):
            yield pytest.param(doc[key]["table"]["values"], id=f"{name}.{key}")
    mixed = [1, 2.5, "+inf", "-inf", -0.0, 0, 2**53 + 1, -(2**62) - 1, 5e-324, 1e308]
    yield pytest.param(mixed, id="mixed")
    yield pytest.param(["-inf", 3, "+inf", "+inf", 0.1], id="inf-first")
    yield pytest.param([True, False, 7], id="bools")
    yield pytest.param([], id="empty")
    yield pytest.param([0.5, -0.0, 5e-324, 1e308, math.inf, -math.inf], id="floats-only")


@pytest.mark.parametrize("raw", _table_cases())
def test_table_values_match_the_per_entry_rule(raw):
    from phidual.core import ext_from_json
    from phidual.serialize import _table_values

    want = np.array([ext_from_json(v) for v in raw], dtype=float)
    got = _table_values(raw)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "entry", ["inf", "nan", "1.0", None, [1.0], math.nan], ids=repr
)
def test_cli_rejects_non_extended_real_table_entries(tmp_path, capsys, entry):
    # numpy alone would read these strings as floats and None as NaN;
    # `ext_from_json` rejects each, and so must the one-pass table parse
    table = [0.0, "+inf"] * 1000 + [1]
    table[7] = entry
    doc = dict(INSTANCE_DOC, g={"type": "tabulated", "table": {"values": table}})
    assert main(["dual-report", "--instance", _write_instance(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def _write_raw(tmp_path, doc, digits):
    """Write `doc` with every "BIG" string replaced by the JSON integer `digits`."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc).replace('"BIG"', digits))
    return str(path)


@pytest.mark.parametrize("where", ["table value", "box bound", "piece coefficient"])
def test_cli_rejects_integers_beyond_float_range(tmp_path, capsys, where):
    # JSON reads 10**400 exactly; float() of it once raised OverflowError out of main
    doc = json.loads(json.dumps(INSTANCE_DOC))
    if where == "table value":
        doc["g"] = {"type": "tabulated", "table": {"values": ["BIG"] + [0.0] * 2000}}
    elif where == "box bound":
        doc["box"]["upper"] = ["BIG"]
    else:
        doc["f"]["pieces"][0]["coeffs"][1] = "BIG"
    path = _write_raw(tmp_path, doc, "1" + "0" * 400)
    with pytest.raises(InstanceFormatError, match="beyond float range"):
        load_instance(path)
    assert main(["dual-report", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "path, value",
    [
        (("phi", "grid"), [9.7, 33]),
        (("box", "samples"), [11.9]),
        (("box", "samples"), [2001.0]),
        (("dimension",), 1.5),
        (("phi", "a_max"), "8"),
        (("f", "pieces", 0, "coeffs"), ["1", "0", "0"]),
        (("box", "lower"), -10.0),
    ],
    ids=["grid-fraction", "samples-fraction", "samples-float", "dimension-fraction",
         "a-max-string", "coeffs-strings", "lower-not-a-list"],
)
def test_cli_rejects_coerced_numeric_fields(tmp_path, capsys, path, value):
    # sizes are JSON integers and numbers JSON numbers (or "+inf"/"-inf"):
    # a 9.7 x 33 grid once built a 9 x 33 class and "8" once read as 8.0
    doc = json.loads(json.dumps(INSTANCE_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(InstanceFormatError):
        parse_instance(doc)
    assert main(["dual-report", "--instance", _write_instance(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_parse_accepts_integers_where_numbers_go():
    doc = json.loads(json.dumps(INSTANCE_DOC))
    doc["phi"].update(a_max=8, v_max=32)
    doc["box"].update(lower=[-10], upper=[10])
    doc["f"]["pieces"][0]["coeffs"] = [2, 0, 0]
    inst = parse_instance(doc)
    assert (inst.phi.a_max, inst.box.lower, inst.f(1.5)) == (8.0, (-10.0,), 4.5)


@pytest.mark.parametrize(
    "path, value",
    [
        (("f",), 5),
        (("g",), None),
        (("phi",), "kind"),
        (("box",), [-10.0, 10.0]),
        (("g",), {"type": "tabulated", "table": [0.0] * 2001}),
        (("f", "pieces", 0), 7),
    ],
    ids=["f-number", "g-null", "phi-string", "box-list", "table-list", "piece-number"],
)
def test_cli_rejects_non_object_fields(tmp_path, capsys, path, value):
    # f, g, box, phi, table and each piece are JSON objects: a number, null,
    # string or list there once escaped main as a TypeError traceback
    doc = json.loads(json.dumps(INSTANCE_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(InstanceFormatError, match="must be a JSON object"):
        parse_instance(doc)
    assert main(["dual-report", "--instance", _write_instance(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_refuses_an_oversized_grid(monkeypatch, capsys):
    from phidual import BoxDomain

    def refuse(self):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(BoxDomain, "axes", refuse)
    assert main(["dual-report", "--catalog", "example-6.1", "--grid", "100000000"]) == 1
    assert "error: instance too large" in capsys.readouterr().err


@pytest.mark.parametrize("eps_list", ["", ","])
def test_cli_rejects_an_empty_eps_list(capsys, eps_list):
    # an empty --eps-list once fell back to the default list without a word
    assert main(["gap-analyze", "--catalog", "example-6.1", "--eps-list", eps_list]) == 1
    assert "error: the eps list must not be empty" in capsys.readouterr().err


@pytest.mark.parametrize("alpha_list", ["", ","])
def test_cli_rejects_an_empty_alpha_list(capsys, alpha_list):
    # "" once ran the default levels and "," reported an inconclusive search
    # that never ran
    assert main(["gap-analyze", "--catalog", "fenchel-quadratic", "--alpha-list", alpha_list]) == 1
    assert "error: the alpha list must not be empty" in capsys.readouterr().err
