"""Gate a tier-1 JUnit report: only the documented honest reds may fail.

    python .github/check_tier1.py tier1.xml

Exits 1 when a test other than the three honest-red acceptance tests (see
docs/decisions.md) fails or errors, or when fewer than 452 tests pass.
"""

import sys
import xml.etree.ElementTree as ET

HONEST_REDS = {
    "tests/test_acceptance.py::test_above_threshold_merge_window",
    "tests/test_acceptance.py::test_pole_deviation_absolute",
    "tests/test_acceptance.py::test_quanta_action_within_log_tolerance",
}
MIN_PASSED = 452


def node_id(case) -> str:
    """pytest node id from a JUnit testcase (classname tests.test_x -> path)."""
    module = case.get("classname", "")
    return f"{module.replace('.', '/')}.py::{case.get('name')}"


def main(path: str) -> int:
    passed, failed = 0, []
    for case in ET.parse(path).getroot().iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(node_id(case))
        elif case.find("skipped") is None:
            passed += 1
    unexpected = sorted(set(failed) - HONEST_REDS)
    for red in sorted(HONEST_REDS):
        print(f"honest red {'failed' if red in failed else 'PASSED'}: {red}")
    for node in unexpected:
        print(f"unexpected failure: {node}")
    print(f"{passed} passed, {len(failed)} failed")
    if passed < MIN_PASSED:
        print(f"fewer than {MIN_PASSED} tests passed")
    return 1 if unexpected or passed < MIN_PASSED else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
