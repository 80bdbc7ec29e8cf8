#!/usr/bin/env python3
"""Self-test of check_src_reach.py over canned `nm -C` output.

    python3 tools/check_src_reach_test.py

Stdlib unittest; needs no build.
"""

import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_src_reach as reach  # noqa: E402

# One src object defining a test-only function and a production one, a
# production object calling the latter, and a test object calling both.
SRC_NM = """\
0000000000000000 T cdt::util::Helper(int)
0000000000000040 T cdt::util::Used[abi:cxx11](double) const
0000000000000080 t cdt::util::(anonymous namespace)::Local()
0000000000000090 W cdt::util::Inline()
                 U cdt::util::Status::ToString() const
"""
PRODUCTION_NM = """\
0000000000000000 T main
                 U cdt::util::Used[abi:cxx11](double) const
"""
TEST_NM = """\
0000000000000000 T cdt::util::(anonymous namespace)::Fixture::TestBody()
                 U cdt::util::Helper(int)
                 U cdt::util::Used[abi:cxx11](double) const
                 U cdt::util::Inline()
"""
HELPER = "cdt::util::Helper(int)"

SOURCE_UNCALLED = """\
#include "util/helper.h"
// Helper(3) in a comment is no call, nor is "Helper(4)" in a string.
int Helper(int x) { return x + 1; }
std::string Used(double v) const { return "Helper(5)"; }
"""
SOURCE_CALLED = SOURCE_UNCALLED + """\
int Twice(int x) {
  return Helper(Helper(x));
}
"""


def objects():
    return {"src/a.cc.o": ("src", SRC_NM),
            "tools/main.cc.o": ("production", PRODUCTION_NM),
            "tests/a_test.cc.o": ("tests", TEST_NM)}


class ParseTest(unittest.TestCase):
    def test_nm_lines(self):
        defined, referenced = reach.parse_nm(SRC_NM)
        self.assertEqual(defined, {HELPER,
                                   "cdt::util::Used[abi:cxx11](double) const"})
        self.assertEqual(referenced, {"cdt::util::Status::ToString() const"})

    def test_names(self):
        self.assertEqual(reach.base_name(
            "cdt::a::B::F[abi:cxx11](std::function<void (int)> const&) const"),
            "cdt::a::B::F")
        self.assertEqual(reach.unqualified("cdt::a::B<x::y>::F(int)"), "F")
        self.assertEqual(reach.unqualified("cdt::a::B::B(int)"), "B")

    def test_own_file_calls(self):
        called = reach.called_in_own_file
        self.assertFalse(called(SOURCE_UNCALLED, "Helper", 1))
        self.assertTrue(called(SOURCE_CALLED, "Helper", 1))
        # Two overloads, two definitions, no call.
        overloads = "int F(int x) {}\nint F(char c) { return 'F'; }\n"
        self.assertFalse(called(overloads, "F", 2))
        separated = "constexpr long kStream = 0xFA17'0001;\nint F() {}\n"
        self.assertFalse(called(separated, "F", 1))

    def test_object_source(self):
        self.assertEqual(
            reach.object_source("b/src/market/CMakeFiles/m.dir/__/obs/t.cc.o",
                                "b", "/r"),
            os.path.normpath("/r/src/obs/t.cc"))
        self.assertIsNone(reach.object_source("b/src/x.o", "b", "/r"))

    def test_allowlist_needs_reasons(self):
        self.assertEqual(reach.read_allowlist("# c\n\ncdt::a::F  why\n"),
                         {"cdt::a::F": "why"})
        with self.assertRaises(ValueError):
            reach.read_allowlist("cdt::a::F\n")
        with self.assertRaises(ValueError):
            reach.read_allowlist("cdt::a::F  one\ncdt::a::F  two\n")


class HitTest(unittest.TestCase):
    def test_flags_a_symbol_only_tests_reference(self):
        hits = reach.find_hits(objects(), lambda _: SOURCE_UNCALLED)
        self.assertEqual(set(hits), {HELPER})
        self.assertEqual(hits[HELPER], (["src/a.cc.o"], ["tests/a_test.cc.o"]))
        unexpected, stale = reach.check(hits, {})
        self.assertEqual(set(unexpected), {HELPER})
        self.assertEqual(stale, [])

    def test_passes_the_symbol_once_allowlisted(self):
        hits = reach.find_hits(objects(), lambda _: SOURCE_UNCALLED)
        unexpected, stale = reach.check(hits, {"cdt::util::Helper": "hook"})
        self.assertEqual(unexpected, {})
        self.assertEqual(stale, [])

    def test_passes_a_name_its_own_file_calls(self):
        # -O3 inlines a call within one object, so nm shows no reference.
        hits = reach.find_hits(objects(), lambda _: SOURCE_CALLED)
        self.assertEqual(hits, {})

    def test_fails_on_a_stale_allowlist_entry(self):
        hits = reach.find_hits(objects(), lambda _: SOURCE_CALLED)
        unexpected, stale = reach.check(hits, {"cdt::util::Helper": "hook"})
        self.assertEqual(unexpected, {})
        self.assertEqual(stale, ["cdt::util::Helper"])


class MainTest(unittest.TestCase):
    """The command end to end: object files in CMake's layout, a fake nm
    that prints each object's canned listing, and the exit status."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        root = self.tmp.name
        self.root = root
        self.build = os.path.join(root, "build")
        self.bench = os.path.join(root, ".bench_build")
        self.write("src/util/helper.cc", SOURCE_UNCALLED)
        self.write("tools/main.cc", "")
        self.write("tests/util/helper_test.cc", "")
        self.write("svcbench/src/main.cc", "")
        self.object("build/src/util/CMakeFiles/u.dir/helper.cc.o", SRC_NM)
        self.object("build/tools/CMakeFiles/t.dir/main.cc.o", PRODUCTION_NM)
        self.object("build/tests/CMakeFiles/h.dir/util/helper_test.cc.o",
                    TEST_NM)
        self.object(".bench_build/CMakeFiles/svcbench.dir/src/main.cc.o", "")
        # An object whose source is gone is not read.
        self.object("build/src/util/CMakeFiles/u.dir/deleted.cc.o",
                    "0000000000000000 T cdt::util::Gone()\n")
        self.write("tests/util/gone_test.cc", "")
        self.object("build/tests/CMakeFiles/g.dir/util/gone_test.cc.o",
                    "                 U cdt::util::Gone()\n")
        self.nm = self.write("fake_nm", '#!/bin/sh\ncat "$2.nm"\n')
        os.chmod(self.nm, os.stat(self.nm).st_mode | stat.S_IXUSR)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def object(self, rel, listing):
        self.write(rel, "")
        self.write(rel + ".nm", listing)

    def run_check(self, allowlist):
        path = self.write("allowlist.txt", allowlist)
        with open(os.devnull, "w") as devnull:
            stdout, sys.stdout = sys.stdout, devnull
            try:
                return reach.main(["--build", self.build, "--bench-build",
                                   self.bench, "--root", self.root,
                                   "--allowlist", path, "--nm", self.nm])
            finally:
                sys.stdout = stdout

    def test_exit_status(self):
        self.assertEqual(self.run_check(""), 1)
        self.assertEqual(self.run_check("cdt::util::Helper  a hook\n"), 0)
        self.assertEqual(self.run_check(
            "cdt::util::Helper  a hook\ncdt::util::Gone  deleted\n"), 1)
        self.assertEqual(self.run_check("cdt::util::Helper\n"), 2)


if __name__ == "__main__":
    unittest.main()
