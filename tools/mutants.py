"""Mutation runs for the trusted kernels of the verdict path.

Each entry of MUTANTS is (file, exact old text, new text, what the new
text breaks, tests to run).  The script copies src/, tests/, proofbench/
and pyproject.toml into temporary directories, never touching the
checkout.  It first runs each distinct set of named tests once on an
unmutated copy; then, for each entry, it replaces the old text in a
fresh copy and runs the named tests there with pytest.  A mutant whose
tests fail is killed; one whose tests pass survives.  An entry whose
tests already fail unmutated, or whose run could not start, is an error:
its failure would say nothing of the mutant.  It prints one JSON object:
the killed, surviving and error entries, each with its seconds.

    python tools/mutants.py            # every entry, a few seconds each
    python tools/mutants.py --check    # each old text occurs exactly once
    python tools/mutants.py div_pos_unnudged mul_ends_unnudged

--check takes seconds and runs in CI, so an entry goes stale loudly when
its kernel is rewritten.  The mutants themselves are run by hand when a
listed kernel changes (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RTBP = "src/conecert/rtbp.py"
FLOW = "src/conecert/flow.py"
INTERVAL = "src/conecert/interval.py"
PROVER = "src/conecert/prover.py"
CONES = "src/conecert/cones.py"
MANIFOLD = "src/conecert/manifold.py"

# name: (file, old text, new text, what it breaks, tests)
MUTANTS = {
    "div_pos_unnudged": (
        RTBP,
        "    return _nextafter(q0, _NINF), _nextafter(q1, _INF)\n",
        "    return q0, q1\n",
        "rtbp._div_pos returns round-to-nearest quotients",
        ["tests/test_rtbp.py::test_div_pos_encloses_exact_quotient",
         "tests/test_replay.py"],
    ),
    "dot_slack_quarter": (
        RTBP,
        "_C = _U + 2.0**-73\n",
        "_C = _U / 4\n",
        "rtbp._dot's running error bound is a quarter of u",
        ["tests/test_rtbp.py", "tests/test_replay.py"],
    ),
    "dot_no_eta": (
        RTBP,
        "    eta = min(len(alo), len(blo)) * _ETA\n",
        "    eta = 0.0\n",
        "rtbp._dot drops the subnormal term n eta",
        ["tests/test_rtbp.py", "tests/test_replay.py"],
    ),
    "exp_unpadded": (
        INTERVAL,
        "        lo = _pad2_down(math.exp(x.lo))\n"
        "    except OverflowError:\n"
        "        lo = 1.7976931348623157e308\n"
        "    try:\n"
        "        hi = _pad2_up(math.exp(x.hi))\n",
        "        lo = math.exp(x.lo)\n"
        "    except OverflowError:\n"
        "        lo = 1.7976931348623157e308\n"
        "    try:\n"
        "        hi = math.exp(x.hi)\n",
        "interval.exp trusts libm's exp to 0 ulp",
        ["tests/test_interval.py", "tests/test_replay.py"],
    ),
    "a_priori_ball_halved": (
        FLOW,
        "    column = IMatrix([[c + Interval(-s, s)] for c, s in zip(u, rad)])\n",
        "    column = IMatrix([[c + Interval(-s / 2, s / 2)] "
        "for c, s in zip(u, rad)])\n",
        "the ball b w_i around each entry of the transported column is "
        "halved",
        ["tests/test_flow.py"],
    ),
    "tube_no_remainder": (
        FLOW,
        "        for acc, (lo, hi) in zip(top, ser):\n",
        "        for acc, (lo, hi) in zip([Interval(0.0)] * len(ser), ser):\n",
        "the tube drops its remainder term c_(m+1)(Z) t^(m+1)",
        ["tests/test_flow.py"],
    ),
    "defect_no_offset": (
        FLOW,
        "        lo, hi = _add_dn(_add_dn(m, -mn), inc.lo), "
        "_add_up(_add_up(m, -mn), inc.hi)\n",
        "        lo, hi = inc.lo, inc.hi\n",
        "the Lohner defect drops the midpoint's offset m - m_new",
        ["tests/test_flow.py"],
    ),
    "orthogonal_inverse_no_radius": (
        FLOW,
        "    r = _nextafter(ratio * qt_norm, _INF)\n",
        "    r = 0.0\n",
        "flow._orthogonal_inverse takes Q^T for Q^-1",
        ["tests/test_flow.py"],
    ),
    "horner_unnudged": (
        FLOW,
        "        lo = _add_dn(_nextafter(p if p == p else 0.0, _NINF), los[k])\n"
        "        hi = _add_up(_nextafter(q if q == q else 0.0, _INF), his[k])\n",
        "        lo = _add_dn(p if p == p else 0.0, los[k])\n"
        "        hi = _add_up(q if q == q else 0.0, his[k])\n",
        "flow._horner's products with h round to nearest",
        ["tests/test_flow.py", "tests/test_replay.py"],
    ),
    "mul_ends_unnudged": (
        INTERVAL,
        "    return (_nextafter(p if p == p else 0.0, _NINF),\n"
        "            _nextafter(q if q == q else 0.0, _INF))\n",
        "    return (p if p == p else 0.0, q if q == q else 0.0)\n",
        "interval._mul_ends, every Interval product, rounds to nearest",
        ["tests/test_interval.py", "tests/test_replay.py"],
    ),
    "chart_root_point": (
        RTBP,
        "    root = sqrt(c2 * (c2 * 9.0 - 8.0))\n",
        "    root = Interval(math.sqrt((c2 * (c2 * 9.0 - 8.0)).mid))\n",
        "jordan_basis takes sqrt(D) at the midpoint of D, as a point",
        ["tests/test_rtbp.py::test_chart_encloses_each_mass_basis_and_inverse"],
    ),
    "add_dn_upward": (
        INTERVAL,
        "    return _nextafter(s, _NINF) if s == s else _NINF\n",
        "    return _nextafter(s, _INF) if s == s else _NINF\n",
        "interval._add_dn nudges an inexact sum upward",
        ["tests/test_interval.py", "tests/test_replay.py"],
    ),
    "power_next_div_k_unnudged": (
        RTBP,
        "    return _nextafter(q0 / k, _NINF), _nextafter(q1 / k, _INF)\n",
        "    return q0 / k, q1 / k\n",
        "rtbp._power_next's division by k rounds to nearest",
        ["tests/test_rtbp.py", "tests/test_replay.py"],
    ),
    "wsum_unnudged": (
        RTBP,
        "    return (_nextafter(a0 * (c0 if a0 >= 0.0 else c1), _NINF),\n",
        "    return (a0 * (c0 if a0 >= 0.0 else c1),\n",
        "the lower product of rtbp._scale, and so of each mass-weighted "
        "sum, rounds to nearest",
        ["tests/test_rtbp.py", "tests/test_replay.py"],
    ),
    "point_field_nearest": (
        RTBP,
        "    return (a if Decimal(a) <= lo else _nextafter(a, _NINF),\n"
        "            b if Decimal(b) >= hi else _nextafter(b, _INF))\n",
        "    return a, b\n",
        "the decimal field at a point start converts its ends to the "
        "nearest floats, not outward",
        ["tests/test_rtbp.py", "tests/test_replay.py"],
    ),
    "point_field_mass_point": (
        RTBP,
        "    d1 = _DN.subtract(x, m[1]), _UP.subtract(x, m[0])\n",
        "    d1 = _DN.subtract(x, m[0]), _UP.subtract(x, m[0])\n",
        "the decimal field at a point start takes X - mu at the lower "
        "mass only",
        ["tests/test_rtbp.py", "tests/test_replay.py"],
    ),
    "mix_no_index0": (
        RTBP,
        "                            rvl[1:] + [v1[0][k], v2[0][k]],\n"
        "                            rvh[1:] + [v1[1][k], v2[1][k]]))\n",
        "                            rvl[1:], rvh[1:]))\n",
        "the mixed partial's series drops its index-0 terms "
        "(1 - mu) d1_0 v1_k + mu d2_0 v2_k",
        ["tests/test_rtbp.py"],
    ),
    "px_force_no_index0": (
        RTBP,
        "        al, ah = _dot(xl[1:kk] + [c1l, c2l], xh[1:kk] + [c1h, c2h],\n"
        "                      wl[::-1] + [w1l[k], w2l[k]], "
        "wh[::-1] + [w1h[k], w2h[k]])\n",
        "        al, ah = _dot(xl[1:kk], xh[1:kk], wl[::-1], wh[::-1])\n",
        "the P_X force's series drops its index-0 terms "
        "(1 - mu) d1_0 w1_k + mu d2_0 w2_k",
        ["tests/test_rtbp.py"],
    ),
    "mass_forcing_no_index0": (
        RTBP,
        "        al, ah = _dot(xl[1:k + 1] + [d1l, -d2h], "
        "xh[1:k + 1] + [d1h, -d2l],\n"
        "                      rdl[1:] + [w1l[k], w2l[k]], "
        "rdh[1:] + [w1h[k], w2h[k]])\n",
        "        al, ah = _dot(xl[1:k + 1], xh[1:k + 1], rdl[1:], rdh[1:])\n",
        "d1 w1 - d2 w2 of the mass forcing drops its index-0 terms "
        "d1_0 w1_k - d2_0 w2_k",
        ["tests/test_rtbp.py"],
    ),
    "image_no_lagrange_tail": (
        FLOW,
        "    inc = _horner_vec(ser_m, top - 1, h, sol_tail)\n",
        "    inc = _horner_vec(ser_m, top - 1, h, [(0.0, 0.0)] * n)\n",
        "the midpoint's increment drops the solution's Lagrange term",
        ["tests/test_flow.py"],
    ),
    "reduced_lagrange_at_p": (
        FLOW,
        "    sol_tail, sol_err = _lagrange(ser_z, top, hph)\n"
        "    if sol_err > tol:\n",
        "    sol_tail, sol_err = _lagrange(ser_z, top, hph)\n"
        "    if top <= order:\n"
        "        sol_tail = _lagrange(ser_z, top - 1, hph)[0]\n"
        "    if sol_err > tol:\n",
        "a step stopped below order p takes its Lagrange coefficient at "
        "p' for the one at p'+1",
        ["tests/test_flow.py"],
    ),
    "crossing_side_flipped": (
        FLOW,
        "    direction = -1 if g0.lo > 0.0 else 1\n",
        "    direction = 1 if g0.lo > 0.0 else -1\n",
        "a flight crosses the section toward the side its starting set "
        "lies on",
        ["tests/test_flow.py"],
    ),
    "cross_no_pk_off": (
        FLOW,
        "        row = (image[i] - rho * pk_off + idot(terms, coords)\n",
        "        row = (image[i] + idot(terms, coords)\n",
        "the crossing projection drops the midpoint's offset from the "
        "section",
        ["tests/test_flow.py"],
    ),
    "dpsi_inverse_plus_k": (
        RTBP,
        "    rows = _acc_mul([e + r[1:] for e, r in zip(col[1:], mm[1:])], "
        "nkp, [top])\n",
        "    rows = _acc_mul([e + r[1:] for e, r in zip(col[1:], mm[1:])], "
        "kp, [top])\n",
        "local_jacobian's D(psi)^-1 step adds K' times row 0 to rows 1-3",
        ["tests/test_rtbp.py", "tests/test_prover.py"],
    ),
    "d2psi_no_k2": (
        RTBP,
        "    col[1:] = _acc_mul(col[1:], nkpp, [[f0]])\n",
        "",
        "local_jacobian drops the K''(x) F_hat_0 term of D^2(psi) F_hat",
        ["tests/test_rtbp.py", "tests/test_prover.py"],
    ),
    "acc_mul_corner_swapped": (
        INTERVAL,
        "                if b0 >= 0.0:\n"
        "                    p = a0 * (b1 if a0 < 0.0 else b0)\n",
        "                if b0 >= 0.0:\n"
        "                    p = a0 * (b0 if a0 < 0.0 else b1)\n",
        "the local Jacobian's products by a nonnegative factor take the "
        "wrong lower corner (interval._acc_mul)",
        ["tests/test_prover.py::TestBatchedDerivative", "tests/test_replay.py"],
    ),
    "acc_mul_sum_nearest": (
        INTERVAL,
        "                    s = _nextafter(s, _NINF) if s == s else _NINF\n",
        "                    pass\n",
        "the local Jacobian's sums round their lower ends to nearest "
        "(interval._acc_mul)",
        ["tests/test_prover.py::TestBatchedDerivative", "tests/test_replay.py"],
    ),
    "dphi_no_k": (
        RTBP,
        "    return IMatrix([[r[0] + idot(r[1:], kp)] + r[1:]"
        " for r in chart.C.rows])\n",
        "    return IMatrix([[r[0]] + r[1:] for r in chart.C.rows])\n",
        "D(Phi) = C D(psi) drops the C_1:3 K' of its column 0",
        ["tests/test_rtbp.py", "tests/test_prover.py"],
    ),
    "cone_shift_no_c": (
        CONES,
        "    shift_x = (n1 + ratio * n2) * 0.5 + c\n",
        "    shift_x = (n1 + ratio * n2) * 0.5\n",
        "the expanding cone conditions drop the rate c",
        ["tests/test_cones.py", "tests/test_prover.py"],
    ),
    "window_no_sqrt_alpha_h": (
        MANIFOLD,
        "    s = (ru * sqrt(Interval(cones.alpha_h))).hi\n",
        "    s = ru.hi\n",
        "the launch window's transversal half-width is r_u, not "
        "r_u sqrt(alpha_h)",
        ["tests/test_manifold.py", "tests/test_prover.py"],
    ),
    "endpoint_sign_not_strict": (
        PROVER,
        "    if not (px.hi < 0.0 if want_negative else px.lo > 0.0):\n",
        "    if not (px.hi <= 0.0 if want_negative else px.lo >= 0.0):\n",
        "run_endpoint accepts a P_X image that reaches 0",
        ["tests/test_prover.py::test_endpoint_sign_check_is_strict"],
    ),
}


def check() -> list:
    """The entries whose old text does not occur exactly once."""
    bad = []
    for name, (path, old, *_) in MUTANTS.items():
        n = (ROOT / path).read_text().count(old)
        if n != 1:
            bad.append(f"{name}: old text occurs {n} times in {path}")
    return bad


def _copy(tmp: Path) -> None:
    """The files the tests read, copied from the checkout into tmp."""
    for d in ("src", "tests", "proofbench"):
        shutil.copytree(ROOT / d, tmp / d,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _pytest(tmp: Path, tests: list) -> tuple:
    """(return code, seconds, last pytest line) of the tests in tmp."""
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p",
         "no:cacheprovider", *tests],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return (proc.returncode, round(seconds, 1),
            lines[-1] if lines else proc.stderr[-200:])


def baseline(names: list) -> dict:
    """The return code and last pytest line of each distinct test set of
    the entries names, run once on an unmutated copy."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        for name in names:
            tests = tuple(MUTANTS[name][4])
            if tests not in out:
                code, _, last = _pytest(tmp, list(tests))
                out[tests] = (code, last)
    return out


def run(name: str) -> tuple:
    """(outcome, seconds, last pytest line) of one mutant: outcome is
    "killed" when its tests fail, "survived" when they pass, else
    "error" (pytest did not run them, e.g. a collection error)."""
    path, old, new, _, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        target = tmp / path
        target.write_text(target.read_text().replace(old, new, 1))
        code, seconds, last = _pytest(tmp, tests)
    outcome = {0: "survived", 1: "killed"}.get(code, "error")
    return outcome, seconds, last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="entries to run (default all)")
    ap.add_argument("--check", action="store_true",
                    help="only check that each old text occurs once")
    args = ap.parse_args(argv)
    bad = check()
    if args.check or bad:
        print(json.dumps({"entries": len(MUTANTS), "stale": bad}))
        return 1 if bad else 0
    unknown = set(args.names) - set(MUTANTS)
    if unknown:
        ap.error(f"unknown mutants: {sorted(unknown)}")
    out = {"killed": {}, "survived": {}, "error": {}}
    names = args.names or list(MUTANTS)
    unmutated = baseline(names)
    for name in names:
        code, last = unmutated[tuple(MUTANTS[name][4])]
        if code != 0:
            out["error"][name] = {"breaks": MUTANTS[name][3], "seconds": 0.0,
                                  "pytest": f"fails unmutated: {last}"}
            continue
        outcome, seconds, last = run(name)
        out[outcome][name] = {"breaks": MUTANTS[name][3],
                              "seconds": seconds, "pytest": last}
    print(json.dumps(out, indent=2))
    return 1 if out["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
