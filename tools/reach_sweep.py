#!/usr/bin/env python3
"""Reachability sweep: which libjim functions does no shipped binary keep?

libjim is only worth what its binaries use. This sweep builds every
shipped binary — the examples, the benches, and the serving benchmark
package (perfbench and its harness tests) — with one section per function
and no inlining, links them with --gc-sections, and lists every `jim::`
function that libjim.a defines but no linked binary keeps:

  compile  -O1 -g -fno-inline -fkeep-inline-functions -fno-ipa-icf
           -ffunction-sections -fdata-sections
  link     -Wl,--gc-sections

-fno-inline keeps every called function as a symbol of its own, so a call
inlined away (a function called once, say) cannot make a reached function
look unreached; -fno-ipa-icf stops identical bodies from folding into one
symbol. -fkeep-inline-functions is the inline pass: libjim.a then emits
every header-inline function of every translation unit, called or not, so
an accessor written in a header that nothing calls is a finding like any
other. Only functions declared in namespace jim count. GCC's clone
suffixes ([clone .isra.0], [clone .cold], [clone .constprop.0], ...) are
stripped before comparing, and symbols are compared by demangled name, so
constructor/destructor variants count as one function.

The inline pass also emits the members the compiler writes itself:
implicit constructors, destructors and assignments, and lambda call
operators and conversions. -g lets the sweep drop exactly those: a
function libjim.a's DWARF describes as a DW_TAG_subprogram with
DW_AT_artificial is not a finding (no name heuristics). A libjim.a with no
DWARF subprogram at all (a build that lost -g) fails the sweep with exit
status 2 rather than reporting every such member.

Findings are suppressed only through the checked-in allowlist
(tools/reach_sweep_allowlist.txt), one demangled signature per line:

  <signature exactly as the sweep prints it>  # why it stays

Every entry needs the "  # why" justification (two spaces before the
hash: lambda names contain '#'), and must still match a finding — stale
entries fail the sweep, so the allowlist can only shrink or stay
justified. Two reasons qualify: a test hook (an audit or reset the suites
call, or a read accessor of private state a named suite asserts on and no
reached function exposes), or a GCC false positive (the function runs in a
shipped binary, and the entry names the reached caller GCC folded it
into). A function only tests use as a reference belongs in tests/support/.

Usage:
  python3 tools/reach_sweep.py [--build-dir DIR] [--jobs N]

The build trees go to DIR (default: build-reach/ in the repository).
Exit status: 0 clean, 1 unlisted findings or stale entries, 2 usage or
build error, or a libjim.a without debug info.
"""

import argparse
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST_PATH = os.path.join(REPO_ROOT, "tools", "reach_sweep_allowlist.txt")

COMPILE_FLAGS = ("-O1 -g -fno-inline -fkeep-inline-functions -fno-ipa-icf "
                 "-ffunction-sections -fdata-sections")
LINK_FLAGS = "-Wl,--gc-sections"

# nm symbol types that denote code: text (global/local) and weak.
FUNCTION_TYPES = frozenset("TtWw")
# A function declared in namespace jim (possibly a const/volatile/ref
# member). Local entities (_ZZ...: lambdas, static locals) go with their
# enclosing function, and std templates merely instantiated on jim types
# (_ZSt..., _ZNSt...) are not libjim's code.
JIM_FUNCTION_RE = re.compile(r"^_ZN[rVKRO]*3jim")
# The first line of a DIE in readelf's dump: " <depth><offset>: Abbrev ...".
DIE_RE = re.compile(r"^ <\d+><[0-9a-f]+>: ")


def run(cmd, **kwargs):
    result = subprocess.run(cmd, **kwargs)
    if result.returncode != 0:
        print("reach_sweep: command failed: " + " ".join(cmd),
              file=sys.stderr)
        sys.exit(2)
    return result


def configure_and_build(source, build, jobs, extra):
    run(["cmake", "-S", source, "-B", build,
         "-DCMAKE_BUILD_TYPE=None",
         "-DCMAKE_CXX_FLAGS=" + COMPILE_FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS,
         "-DJIM_WERROR=OFF"] + extra, stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build, "-j", str(jobs)],
        stdout=subprocess.DEVNULL)


def defined_functions(path):
    """Demangled names of the jim:: functions `path` defines.

    A GCC clone's mangled name is the original's plus a '.'-separated
    suffix (.isra.0, .cold, .constprop.0, ...), demangled as "[clone ...]";
    cutting at the first '.' folds every clone into its origin.
    """
    out = run(["nm", "--defined-only", path],
              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
              text=True).stdout
    mangled = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if (len(parts) == 3 and parts[1] in FUNCTION_TYPES and
                JIM_FUNCTION_RE.match(parts[2])):
            mangled.add(parts[2].split(".", 1)[0])
    demangled = run(["c++filt"], input="\n".join(sorted(mangled)),
                    stdout=subprocess.PIPE, text=True).stdout
    return set(demangled.split("\n")) - {""}


def artificial_functions(path):
    """Demangled names of the compiler-generated functions `path` describes.

    These are the DW_TAG_subprogram entries of its DWARF that carry
    DW_AT_artificial: implicit constructors, destructors and assignments,
    and lambda call operators and conversions. Exits 2 when `path` has no
    DWARF subprogram at all (a build without -g), since every such member
    would then read as an unreached finding.
    """
    proc = subprocess.Popen(["readelf", "--wide", "--debug-dump=info", path],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    subprograms = 0
    mangled = set()
    in_subprogram = artificial = False
    linkage = None

    def close():
        if in_subprogram and artificial and linkage:
            mangled.add(linkage)

    for line in proc.stdout:
        if DIE_RE.match(line):
            close()
            in_subprogram = line.rstrip().endswith("(DW_TAG_subprogram)")
            subprograms += in_subprogram
            artificial = False
            linkage = None
        elif in_subprogram:
            if "DW_AT_artificial" in line:
                artificial = True
            elif "DW_AT_linkage_name" in line:
                linkage = line.rsplit(": ", 1)[1].strip()
    close()
    if proc.wait() != 0:
        print("reach_sweep: command failed: readelf --debug-dump=info "
              + path, file=sys.stderr)
        sys.exit(2)
    if subprograms == 0:
        print("reach_sweep: %s has no DWARF subprograms; the sweep needs a "
              "-g build to tell compiler-generated members apart" % path,
              file=sys.stderr)
        sys.exit(2)
    demangled = run(["c++filt"], input="\n".join(sorted(mangled)),
                    stdout=subprocess.PIPE, text=True).stdout
    return set(demangled.split("\n")) - {""}


def executables(build):
    """ELF executables at the top of a build tree (where CMake puts them)."""
    found = []
    for name in sorted(os.listdir(build)):
        path = os.path.join(build, name)
        if not os.path.isfile(path) or not os.access(path, os.X_OK):
            continue
        with open(path, "rb") as f:
            if f.read(4) == b"\x7fELF":
                found.append(path)
    return found


def load_allowlist():
    entries = {}
    errors = []
    with open(ALLOWLIST_PATH, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            signature, sep, why = line.partition("  # ")
            if not sep or not why.strip():
                errors.append("%s:%d: entry has no '  # why' justification"
                              % (ALLOWLIST_PATH, lineno))
                continue
            entries[signature.strip()] = lineno
    return entries, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO_ROOT, "build-reach"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    jim_build = os.path.join(args.build_dir, "jim")
    bench_build = os.path.join(args.build_dir, "perfbench")
    configure_and_build(REPO_ROOT, jim_build, args.jobs,
                        ["-DJIM_BUILD_TESTS=OFF", "-DJIM_BUILD_EXAMPLES=ON",
                         "-DJIM_BUILD_BENCHES=ON"])
    configure_and_build(os.path.join(REPO_ROOT, "perfbench"), bench_build,
                        args.jobs, [])

    archive = os.path.join(jim_build, "libjim.a")
    library = defined_functions(archive) - artificial_functions(archive)
    binaries = executables(jim_build) + executables(bench_build)
    if not any(os.path.basename(b) == "perfbench" for b in binaries):
        print("reach_sweep: perfbench was not built", file=sys.stderr)
        return 2
    reached = set()
    for binary in binaries:
        reached |= defined_functions(binary)
    unreached = library - reached

    entries, errors = load_allowlist()
    for name in sorted(unreached - entries.keys()):
        errors.append("unreached: " + name)
    for name in sorted(entries.keys() - unreached):
        errors.append("%s:%d: stale entry, no longer a finding: %s"
                      % (ALLOWLIST_PATH, entries[name], name))
    print("reach_sweep: %d binaries, %d libjim functions, %d unreached "
          "(%d allowlisted)" % (len(binaries), len(library), len(unreached),
                                len(unreached & entries.keys())))
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
