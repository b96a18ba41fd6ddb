"""Correctness gates applied to every benchmark pass, and a self-check that
each gate rejects a perturbed result."""

import hashlib
import json

ORACLE_MEAN_TOL = 1e-4        # absolute, as in the acceptance suite
ORACLE_VAR_RTOL = 1e-4        # relative to the filter variance
BELLMAN_ACTION_TOL = 1e-6


def status_ok(stdout, exit_code):
    """The command exited 0 and its last stdout line is an ``ok`` status."""
    if exit_code not in (0, None):
        return False
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        status = json.loads(lines[-1])
    except json.JSONDecodeError:
        return False
    return isinstance(status, dict) and status.get("status") == "ok"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def same_bytes(reference, digests):
    """Names whose digest differs from the reference pass (or is missing)."""
    names = set(reference) | set(digests)
    return sorted(n for n in names if reference.get(n) != digests.get(n))


def action_matches(action, candidates, tol=BELLMAN_ACTION_TOL):
    """The numeric first action lies within tol of one tied minimizer."""
    return any(abs(float(action) - float(c)) <= tol for c in candidates)


def oracle_agrees(oracle_mean, oracle_var, kf_mean, kf_var):
    return (abs(oracle_mean - kf_mean) < ORACLE_MEAN_TOL
            and abs(oracle_var - kf_var) <= ORACLE_VAR_RTOL * kf_var)


def self_check():
    """Feed every gate a passing and a perturbed result.

    Returns a list of gates that accepted the perturbed result or rejected
    the good one; an empty list means every gate can fail.
    """
    problems = []
    good_status = json.dumps({"command": "x", "status": "ok", "failures": []})
    bad_status = json.dumps({"command": "x", "status": "fail", "failures": ["f"]})
    if not status_ok("header\n" + good_status + "\n", 0):
        problems.append("status_ok rejects an ok status line")
    if status_ok("header\n" + bad_status + "\n", 0) or status_ok(good_status, 1):
        problems.append("status_ok accepts a failed command")

    csv = b"run,t,stage_cost\n0,0,1.25\n"
    flipped = bytearray(csv)
    flipped[-3] ^= 0x01
    reference = {"trajectories.csv": sha256(csv)}
    if same_bytes(reference, {"trajectories.csv": sha256(csv)}):
        problems.append("same_bytes rejects identical bytes")
    if not same_bytes(reference, {"trajectories.csv": sha256(bytes(flipped))}):
        problems.append("same_bytes accepts a flipped CSV byte")

    candidates = (-0.24825626381484173, 0.14310033865891658)
    if not action_matches(candidates[1] + 1e-9, candidates):
        problems.append("action_matches rejects a tied minimizer")
    if action_matches(candidates[1] + 1e-5, candidates):
        problems.append("action_matches accepts an action off every minimizer")

    if not oracle_agrees(0.3, 0.02, 0.3 + 1e-9, 0.02 * (1.0 + 1e-9)):
        problems.append("oracle_agrees rejects matching moments")
    if oracle_agrees(0.3 + 2e-4, 0.02, 0.3, 0.02):
        problems.append("oracle_agrees accepts a wrong oracle mean")
    if oracle_agrees(0.3, 0.02 * (1.0 + 3e-4), 0.3, 0.02):
        problems.append("oracle_agrees accepts a wrong oracle variance")
    return problems
