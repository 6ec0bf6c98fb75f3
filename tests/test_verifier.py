import hashlib
import json

from superschur import (
    ScanConfig,
    check_bounds,
    generate_nilpotent,
    get,
    is_nilpotent,
    load,
    multiplier_dimension,
    replay,
    reproduce_table1,
    scan,
    serialize,
    validate,
)
from superschur.fields import Field, RATIONALS
from superschur.verifier import CLAIMS, Finding


def test_generator_depth0_yields_abelians():
    cfg = ScanConfig(samples=10, depth=0, seed=7)
    for L in generate_nilpotent(cfg):
        assert L.is_abelian()
        assert L.dims.even <= 3 and L.dims.odd <= 3


def test_generator_produces_valid_nilpotent(scan_instances):
    assert len(scan_instances) == 200
    for L in scan_instances[:40]:
        assert validate(L).ok and is_nilpotent(L)
        assert L.dims.even <= 3 and L.dims.odd <= 3


def test_generator_is_deterministic():
    cfg = ScanConfig(samples=12, seed=99)
    a = [serialize(L) for L in generate_nilpotent(cfg)]
    b = [serialize(L) for L in generate_nilpotent(cfg)]
    assert a == b


# sha256 of the default scan's presentations, as generated when this pin was
# set. Speed work on the generator's path must keep its instances unchanged.
DEFAULT_SCAN_SHA256 = "2397b8bee31831eba89864b63b03e2d724ae21ca21ebaaeb4deb8e103fb7c2d4"


def test_default_scan_instances_are_pinned(scan_instances):
    text = "".join(serialize(L) for L in scan_instances)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SCAN_SHA256


def test_generator_seeds_differ():
    a = [serialize(L) for L in generate_nilpotent(ScanConfig(samples=12, seed=1))]
    b = [serialize(L) for L in generate_nilpotent(ScanConfig(samples=12, seed=2))]
    assert a != b


def test_generator_reaches_the_1_1_extension_of_0_1():
    # the unique tail of the (0|1) pair space gives [f1, f1] = e1
    found = False
    for L in generate_nilpotent(ScanConfig(samples=120, depth=1, seed=3)):
        if L.dims.even == 1 and L.dims.odd == 1 and not L.is_abelian():
            t = L.bracket_basis(1, 1)
            if t is not None and t[0] and not t[1]:
                found = True
                break
    assert found


def test_generator_over_q():
    cfg = ScanConfig(field=RATIONALS, samples=6, seed=5)
    for L in generate_nilpotent(cfg):
        assert L.field.is_rational
        assert validate(L).ok and is_nilpotent(L)


# --- table 1 reproduction ---------------------------------------------------

EXPECTED_RESOLVED = {
    "(2|2)_1": 1, "(2|2)_4": 2, "(2|2)_6": 2, "(1|3)_1": 3, "(1|4)_7": 3,
    "(3|2)_5": 2, "(3|2)_13": 3, "(2|3)_18": 2, "(2|3)_19": 2,
    "(2|3)_22": 3, "(2|3)_23": 2,
}


def test_reproduce_table1_rows():
    rep = reproduce_table1()
    assert rep.all_passed
    assert {r.name: r.computed for r in rep.rows} == EXPECTED_RESOLVED


def test_reproduce_table1_findings():
    rep = reproduce_table1()
    claims = sorted(f.claim for f in rep.findings)
    assert claims == ["Table1", "Thm2.6(iii)"]
    t1 = next(f for f in rep.findings if f.claim == "Table1")
    assert t1.details["name"] == "(2|3)_19"
    assert t1.observed == "2"
    t26 = next(f for f in rep.findings if f.claim == "Thm2.6(iii)")
    assert t26.details["name"] == "(2|3)_18"
    assert t26.observed == "2"


def test_findings_replay():
    rep = reproduce_table1()
    for f in rep.findings:
        assert replay(f) == f.observed
        # the serialized instance stands alone
        L = load(f.instance)
        assert validate(L).ok


def test_finding_json_lines():
    rep = reproduce_table1()
    for f in rep.findings:
        doc = json.loads(f.to_json())
        assert set(doc) == {"claim", "instance", "expected", "observed", "details"}


def test_claim_ids_documented():
    for f in reproduce_table1().findings:
        assert f.claim in CLAIMS


# --- bound checks -----------------------------------------------------------

def test_check_bounds_clean_on_catalog():
    assert check_bounds([get(n) for n in EXPECTED_RESOLVED]) == []


def test_check_bounds_clean_on_family_member():
    import warnings

    from superschur import family_4_2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # m+n = 6 member: multiplier 2 sits under the m+2n-5 = 3 ceiling
        assert check_bounds([family_4_2(1, 1)]) == []


def test_check_bounds_clean_on_scan(scan_instances):
    assert check_bounds(scan_instances) == []


def test_check_bounds_flags_planted_violation():
    # a fake report: pretend a bound failed by constructing the finding
    # machinery directly on a quotient claim, then replaying it
    L = get("(3|2)_13")
    k = [str(c) for c in [0, 0, 1, 0, 0]]
    f = Finding(claim="Lem2.2", instance=serialize(L),
                expected="dim (L/K)^2 = 2", observed="2",
                details={"kernel": k, "kernel_parity": "even", "part": "derived"})
    assert replay(f) == "2"


def test_scan_zero_findings_default():
    rep = scan(ScanConfig(samples=60))
    assert rep.findings == ()
    assert rep.instance_count == 60
    assert rep.gamma_checked + rep.gamma_skipped == 60


def test_scan_summary_deterministic():
    a = scan(ScanConfig(samples=25, seed=11))
    b = scan(ScanConfig(samples=25, seed=11))
    assert a.findings == b.findings
    assert a.summary_lines()[:-1] == b.summary_lines()[:-1]  # elapsed differs


def test_scan_over_larger_prime_field():
    rep = scan(ScanConfig(field=Field(7), samples=20, seed=4))
    assert rep.findings == ()


def test_multiplier_report_timing_under_a_second():
    for name in EXPECTED_RESOLVED:
        rep = multiplier_dimension(get(name))
        assert rep.timing < 1.0
