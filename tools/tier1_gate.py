#!/usr/bin/env python3
"""Exit 0 only if a tier-1 JUnit XML report has no errors, no skipped or xfailed tests, and
fails exactly README's two by-design acceptance tests.  Usage: python3 tools/tier1_gate.py
REPORT.xml"""
import sys
import xml.etree.ElementTree as ET

BY_DESIGN = {
    "tests.test_acceptance::test_example_check_accepts_start_vector_with_c_at_four",
    "tests.test_acceptance::test_signed_rank_tracks_exact_permutation_for_every_size_up_to_twelve",
}
cases = list(ET.parse(sys.argv[1]).iter("testcase"))
tags = {f"{c.get('classname')}::{c.get('name')}": {e.tag for e in c} for c in cases}
errors = sorted(name for name, kinds in tags.items() if "error" in kinds)
failures = {name for name, kinds in tags.items() if "failure" in kinds}
# pytest writes both a skip and an xfail as a <skipped> element
skipped = sorted(name for name, kinds in tags.items() if "skipped" in kinds)
print(f"{len(cases)} tests; errors: {errors}; skipped: {skipped}; failures: {sorted(failures)}")
if not cases or errors or skipped or failures != BY_DESIGN:
    sys.exit(
        "tier-1 gate: expected no errors, no skips and exactly these failures: "
        f"{sorted(BY_DESIGN)}"
    )
