#!/usr/bin/env python3
"""Fail when src/ ships a function that only tests reach.

    python3 tools/check_src_reach.py --build build-release \\
        --bench-build .bench_build [--allowlist tools/src_reach_allowlist.txt]

Reads every object file of a Release build with `nm -C`. A hit is an
exported function (`T`) in namespace cdt:: that a src/ object defines, that
some tests/ object references (`U`), and that no src/, tools/, examples/,
bench/ or svcbench object references. The svcbench objects come from the
benchmark's own build tree (`cmake -S svcbench -B .bench_build`, target
svcbench), since the repository's build does not compile svcbench.

`nm` cannot see a call between two functions of one object file, which -O3
inlines away. So a hit whose name stands in its own source file more often
than the object defines functions of that name (a call beside the
definitions) is dropped as reached by production. Only the name is
matched: an overload that only tests call hides behind a sibling overload
its file calls.

A hit is allowed when tools/src_reach_allowlist.txt names it: one entry a
line, the qualified name without its parameter list (which covers every
overload), then a reason. docs/TESTING.md says what may go there (test
hooks, paper oracles, read-only accessors); anything else is code to
delete or to move to tests/support/. An entry that matches no hit fails
the check too, so the list cannot go stale.

Stdlib only; exits 0 when every hit is allowlisted and every entry is used,
1 otherwise, and 2 on a usage error (no objects found, a malformed
allowlist). tools/check_src_reach_test.py is its self-test.
"""

import argparse
import os
import re
import subprocess
import sys

# Top-level directories of the build tree whose objects count as production.
PRODUCTION_DIRS = ("src", "tools", "examples", "bench")
TEST_DIRS = ("tests",)

_NM_LINE = re.compile(r"^[0-9A-Fa-f]*\s+([A-Za-z?-])\s+(.+)$")
_ABI_TAG = re.compile(r"\[abi:[^\]]*\]")


def parse_nm(text):
    """(defined, referenced) name sets of one object's `nm -C` output:
    defined holds its exported text symbols (type T), referenced its
    undefined ones (type U)."""
    defined, referenced = set(), set()
    for line in text.splitlines():
        match = _NM_LINE.match(line)
        if match is None:
            continue
        kind, name = match.group(1), match.group(2).strip()
        if kind == "T":
            defined.add(name)
        elif kind == "U":
            referenced.add(name)
    return defined, referenced


def base_name(symbol):
    """The qualified name without its parameter list, cv-qualifiers and ABI
    tags: 'cdt::a::B::F[abi:cxx11](int) const' -> 'cdt::a::B::F'."""
    symbol = _ABI_TAG.sub("", symbol)
    depth = 0
    for i in range(len(symbol) - 1, -1, -1):
        ch = symbol[i]
        if ch == ")":
            depth += 1
        elif ch == "(":
            depth -= 1
            if depth == 0:
                return symbol[:i]
    return symbol


def unqualified(symbol):
    """The last component of a symbol's name: 'cdt::a::B::F(int)' -> 'F'."""
    name = base_name(symbol)
    depth = 0
    for i in range(len(name) - 1, 0, -1):
        ch = name[i]
        if ch == ">":
            depth += 1
        elif ch == "<":
            depth -= 1
        elif depth == 0 and ch == ":" and name[i - 1] == ":":
            return name[i + 1:]
    return name


def strip_comments_and_strings(source):
    """C++ source with comments removed and string/char literals emptied,
    so that names in them are not read as calls."""
    out = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            end = source.find("\n", i)
            i = n if end < 0 else end
        elif ch == "/" and nxt == "*":
            end = source.find("*/", i + 2)
            i = n if end < 0 else end + 2
            out.append(" ")
        elif ch == '"' or (ch == "'" and not (i and source[i - 1].isalnum())):
            j = i + 1
            while j < n and source[j] != ch:
                j += 2 if source[j] == "\\" else 1
            out.append(ch + ch)
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def called_in_own_file(source, name, definitions):
    """True when `name(` stands in the source more often than the object
    defines functions of that name: some use beside the definitions, which
    is read as a call (a forward declaration in a source file reads so too).
    """
    text = strip_comments_and_strings(source)
    pattern = r"(?<![\w~])" + re.escape(name) + r"\s*\("
    return len(re.findall(pattern, text)) > definitions


def object_source(obj_path, build_dir, source_root):
    """The source file a CMake object was compiled from:
    <build>/src/x/CMakeFiles/t.dir/y.cc.o -> <root>/src/x/y.cc (a '__'
    directory component stands for '..')."""
    rel = os.path.relpath(obj_path, build_dir)
    parts = rel.split(os.sep)
    if "CMakeFiles" not in parts:
        return None
    at = parts.index("CMakeFiles")
    tail = [".." if p == "__" else p for p in parts[at + 2:]]
    if not tail or not tail[-1].endswith(".o"):
        return None
    tail[-1] = tail[-1][:-2]
    return os.path.normpath(os.path.join(source_root, *parts[:at], *tail))


def read_allowlist(text):
    """{qualified name: reason} from the allowlist's text; blank lines and
    '#' comments are skipped. Raises ValueError on an entry without a
    reason or a duplicate."""
    entries = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 1)
        if len(fields) < 2:
            raise ValueError("allowlist line %d names %s without a reason"
                             % (number, fields[0]))
        if fields[0] in entries:
            raise ValueError("allowlist line %d repeats %s"
                             % (number, fields[0]))
        entries[fields[0]] = fields[1].strip()
    return entries


def find_hits(objects, source_of):
    """Symbols only tests reach. `objects` maps an object path to (role,
    nm text) with role 'src', 'production' or 'tests'; `source_of` maps a
    src object path to its source text. Returns
    {symbol: (defining objects, referencing test objects)}."""
    defined_in, definitions = {}, {}
    production_refs, test_refs = set(), {}
    for path, (role, text) in objects.items():
        defined, referenced = parse_nm(text)
        if role == "src":
            for name in defined:
                if name.startswith("cdt::"):
                    defined_in.setdefault(name, []).append(path)
                key = (path, unqualified(name))
                definitions[key] = definitions.get(key, 0) + 1
        if role == "tests":
            for name in referenced:
                test_refs.setdefault(name, []).append(path)
        else:
            production_refs |= referenced
    hits = {}
    for name, definers in defined_in.items():
        if name in production_refs or name not in test_refs:
            continue
        short = unqualified(name)
        if any(called_in_own_file(source_of(path), short,
                                  definitions[(path, short)])
               for path in definers):
            continue
        hits[name] = (sorted(definers), sorted(test_refs[name]))
    return hits


def check(hits, allowlist):
    """(unexpected hits, stale allowlist entries)."""
    used = set()
    unexpected = {}
    for name, where in hits.items():
        key = base_name(name)
        if key in allowlist:
            used.add(key)
        else:
            unexpected[name] = where
    stale = sorted(set(allowlist) - used)
    return unexpected, stale


def collect_objects(build_dir, bench_build, root):
    """{object path: role} for the repository build and svcbench's own
    objects in its benchmark build. An object whose source file is gone (a
    build tree that predates a deletion) is skipped."""
    trees = [(os.path.join(build_dir, top), build_dir, root,
              "src" if top == "src" else
              "tests" if top in TEST_DIRS else "production")
             for top in PRODUCTION_DIRS + TEST_DIRS]
    trees.append((os.path.join(bench_build, "CMakeFiles", "svcbench.dir"),
                  bench_build, os.path.join(root, "svcbench"), "production"))
    roles = {}
    for tree, build, source_root, role in trees:
        for dirpath, _, files in os.walk(tree):
            for f in files:
                path = os.path.join(dirpath, f)
                source = object_source(path, build, source_root)
                if f.endswith(".o") and source and os.path.isfile(source):
                    roles[path] = role
    return roles


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", required=True,
                        help="the repository's Release build directory")
    parser.add_argument("--bench-build", required=True,
                        help="svcbench's build directory (svcbench built)")
    parser.add_argument("--allowlist",
                        default=os.path.join(here, "src_reach_allowlist.txt"))
    parser.add_argument("--root", default=root,
                        help="the checkout the builds were made from")
    parser.add_argument("--nm", default="nm")
    args = parser.parse_args(argv)

    roles = collect_objects(args.build, args.bench_build, args.root)
    counts = {r: sum(1 for v in roles.values() if v == r)
              for r in ("src", "tests", "production")}
    svc_objects = sum(1 for p in roles
                      if p.startswith(os.path.join(args.bench_build, "")))
    if counts["src"] == 0 or counts["tests"] == 0 or svc_objects == 0:
        print("check_src_reach: no objects (src %d, tests %d, svcbench %d); "
              "build both trees first" % (counts["src"], counts["tests"],
                                          svc_objects))
        return 2

    objects = {}
    for path, role in roles.items():
        out = subprocess.run([args.nm, "-C", path], check=True,
                             capture_output=True, text=True).stdout
        objects[path] = (role, out)

    sources = {}

    def source_of(obj):
        if obj not in sources:
            path = object_source(obj, args.build, args.root)
            with open(path, encoding="utf-8") as f:
                sources[obj] = f.read()
        return sources[obj]

    with open(args.allowlist, encoding="utf-8") as f:
        try:
            allowlist = read_allowlist(f.read())
        except ValueError as error:
            print("check_src_reach: %s" % error)
            return 2
    hits = find_hits(objects, source_of)
    unexpected, stale = check(hits, allowlist)

    print("check_src_reach: %d objects (src %d, tests %d, production %d "
          "incl. svcbench %d); %d test-only symbols, %d allowlisted"
          % (len(roles), counts["src"], counts["tests"],
             counts["production"], svc_objects, len(hits),
             len(hits) - len(unexpected)))
    for name in sorted(unexpected):
        definers, users = unexpected[name]
        print("HIT   %s\n      defined in %s\n      referenced only by %s"
              % (name, ", ".join(os.path.relpath(p, args.build)
                                 for p in definers),
                 ", ".join(os.path.relpath(p, args.build) for p in users)))
    for key in stale:
        print("STALE %s: allowlisted, but no test-only symbol matches it"
              % key)
    if unexpected or stale:
        print("check_src_reach: FAIL (%d hits, %d stale allowlist entries); "
              "delete the code, move it to tests/support/, or allowlist it "
              "with a reason" % (len(unexpected), len(stale)))
        return 1
    print("check_src_reach: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
