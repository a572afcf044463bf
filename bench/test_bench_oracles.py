"""The benchmark's oracles accept correct outputs and reject corrupted ones.

    python3 -m pytest bench -q
"""

import json
from fractions import Fraction

import pytest

import checks
import oracles as o


def _text(x: o.Q4) -> str:
    """The program's exact form, e.g. "1/4+1/4*r5", written independently of spinroot."""
    parts = []
    for num, unit in zip(x.n, ("", "*r2", "*r5", "*r10")):
        if num:
            s = f"{Fraction(num, x.q)}{unit}"
            parts.append(s if not parts or s.startswith("-") else "+" + s)
    return "".join(parts) or "0"


def _roots_payload(roots) -> dict:
    return {"name": "F4", "count": len(roots), "roots": [[_text(c) for c in r] for r in roots]}


def _write_f4_export(tmp_path, roots):
    (tmp_path / "F4_roots.json").write_text(json.dumps(_roots_payload(roots)))
    # unit-normalized F4 simple roots (e1-e2)/r2 ... : Coxeter graph 3, 4, 3
    (tmp_path / "F4_cartan.csv").write_text(
        "# meta\n2,-1,0,0\n-1,2,-1*r2,0\n0,-1*r2,2,-1\n0,0,-1,2\n")


def test_scalar_parser_and_field_arithmetic():
    x = o.parse_scalar("1/4+1/4*r5")
    assert x == o.TAU * o.HALF
    assert o.parse_scalar("-1/2*r2") * o.parse_scalar("-1/2*r2") == o.HALF
    assert o.TAU * o.TAU == o.TAU + o.ONE
    y = o.parse_scalar("3-2*r2+1/3*r5-1*r10")
    assert y * y.inverse() == o.ONE
    assert o.parse_scalar(_text(y)) == y
    with pytest.raises(o.OracleError):
        o.parse_scalar("1/2*r3")


def test_reference_root_sets_pass_the_axioms():
    f4 = o.reference_f4()
    assert len(f4) == 48 and len(o.reference_h4()) == 120
    o.check_root_axioms(f4)


def test_dropped_root_is_rejected(tmp_path):
    h4 = o.reference_h4()
    with pytest.raises(o.OracleError, match="negative"):
        o.check_root_axioms(h4[1:])
    f4 = o.reference_f4()
    _write_f4_export(tmp_path, f4)
    checks.export_roots("F4", tmp_path)
    _write_f4_export(tmp_path, f4[:-1])
    with pytest.raises(o.OracleError, match="rank\\*h"):
        checks.export_roots("F4", tmp_path)


def test_root_set_off_the_reference_is_rejected():
    # a rotated or rescaled set keeps |Phi| but changes the inner products
    f4 = o.reference_f4()
    doubled = [tuple(c + c for c in r) for r in f4]
    o.check_root_axioms(doubled)
    assert o.gram_profile(doubled) != o.gram_profile(f4)
    axes = [r for r in f4 if sum(not c.is_zero() for c in r) == 1]
    half = (o.HALF,) * 4
    with pytest.raises(o.OracleError, match="reflection"):
        o.check_root_axioms(axes + [half, o.vneg(half)])


def _e8_doubled():
    roots = set()
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    roots.add(tuple(v))
    for mask in range(256):
        if bin(mask).count("1") % 2 == 0:
            roots.add(tuple(-1 if mask >> k & 1 else 1 for k in range(8)))
    return sorted(roots)


def test_integer_root_check():
    e8 = _e8_doubled()
    o.check_integer_root_set(e8, 240)
    with pytest.raises(o.OracleError):
        o.check_integer_root_set(e8[1:], 240)
    with pytest.raises(o.OracleError):
        o.check_integer_root_set(e8[1:], 239)


def test_wrong_exponent_is_rejected():
    rec = {"op": "coxplane", "family": "I2xI2", "n": 7, "error": None,
           "result": {"h": 7, "exponents": [1, 1, 6, 6], "plane": "invariant",
                      "factorization_exponents": [1, 1, 6, 6],
                      "default_factorization_exponents": [1, 1, 6, 6]}}
    checks.sweep_record(rec)
    for key in ("exponents", "factorization_exponents", "default_factorization_exponents"):
        bad = {**rec, "result": {**rec["result"], key: [1, 2, 5, 6]}}
        with pytest.raises(o.OracleError):
            checks.sweep_record(bad)


def test_swapped_mckay_dimensions_are_rejected():
    # Dic_5, the spin group of A1xI2(5): four linear characters, four of dimension 2
    rec = {"op": "mckay", "family": "A1xI2", "n": 5, "error": None,
           "result": {"order": 20, "classes": 8, "dims": [1, 1, 1, 1, 2, 2, 2, 2],
                      "affine": "D~7"}}
    checks.sweep_record(rec)
    swapped = {**rec, "result": {**rec["result"], "dims": [1, 1, 1, 2, 1, 2, 2, 2]}}
    with pytest.raises(o.OracleError):
        checks.sweep_record(swapped)


def _verify_payload():
    checks_ = [{"criterion": c, "name": f"check {c}", "passed": True,
                "measured": "x", "expected": "x"} for c in o.CRITERIA]
    return {"checks": checks_, "passed": len(checks_), "failed": 0}


def test_verify_payload_with_one_failed_check_is_rejected():
    payload = _verify_payload()
    o.check_verify_payload(payload)
    payload["checks"][4]["passed"] = False
    with pytest.raises(o.OracleError, match="failed"):
        o.check_verify_payload(payload)
    payload = _verify_payload()
    del payload["checks"][10]
    payload["passed"] -= 1
    with pytest.raises(o.OracleError, match="criteria"):
        o.check_verify_payload(payload)


def test_known_failure_is_narrow():
    rec = {"op": "induced", "family": "A1xI2", "n": 13,
           "error": "ValueError: no catalog root system matches Spin(A1xI2(13))"}
    assert checks.known_failure(rec)
    assert not checks.known_failure({**rec, "n": 12})
    assert not checks.known_failure({**rec, "op": "mckay"})
    assert not checks.known_failure({**rec, "error": "ValueError: ambiguous identification"})
