#!/usr/bin/env python3
"""simlint — project-specific static analysis for the nvmooc simulator.

The simulator's headline guarantee is *bit-identical replay*: the same
scenario and seed must produce the same ExperimentResult on every run,
on every machine.  The rules here reject the constructs that historically
break that guarantee, plus unit-safety escapes around the strong Time /
Bytes wrapper types (src/common/units.hpp), plus the shared-state
contract (src/common/shard_domain.hpp) behind experiment-level
parallelism: sweeps run independent experiments concurrently, so every
piece of long-lived mutable state must either be confined to one
experiment or be declared SIM_SHARD_SHARED with a note saying how access
is synchronised, and the machine-readable inventory (--shard-report) is
the reviewed record of that shared state.

Rules
-----
  SL001 wall-clock          std::chrono / time() / gettimeofday / clock()
                            outside the observability allowlist.  Sim code
                            must read time from the simulated clock only.
  SL002 ambient-rng         rand() / srand() / std::random_device /
                            /dev/urandom.  All randomness must flow from a
                            seeded nvmooc::Rng carried through the call
                            graph.
  SL003 unordered-iter      Iteration over std::unordered_{map,set} in
                            sim-affecting code.  Hash-table iteration
                            order is implementation-defined and varies
                            with libstdc++ version, so any fold over it
                            that is not order-independent breaks replay.
  SL004 float-to-time       Floating-point values laundered into Time
                            through the integral constructor (e.g.
                            Time{static_cast<int64_t>(x * 1.5)}).  The
                            sanctioned conversion is from_seconds(), which
                            documents its rounding in one place.
  SL005 default-seeded-rng  A std <random> engine declared without an
                            explicit seed.  Default-constructed engines
                            are deterministic per the standard but differ
                            across implementations; an explicit seed makes
                            the intent auditable.
  SL006 request-lifecycle   A TU that closes a request on the probe
                            (src/common/probe.hpp, request_close) must
                            open it there too (request_open).  The
                            auditor and the causal profiler take a
                            request's lifecycle only from the probe, so
                            a close with no open reaches every
                            subscriber as a completion with no issue:
                            phantom causality violations and edges the
                            critical-path walk cannot place.
  SL007 missing-nodiscard   A header-file API returning Time or Bytes by
                            value without [[nodiscard]].  These types are
                            the unit system's whole point; silently
                            dropping one (e.g. calling a cost function
                            for its side effects that has none) is always
                            a bug.  Headers only — definitions in .cpp
                            files inherit the declaration's attribute.
  SL008 unit-narrowing      static_cast of a Time{}.ps() or Bytes{}
                            .value() escape hatch to a type narrower than
                            the underlying 64-bit representation (int,
                            unsigned, float, int32_t, ...).  Picosecond
                            counts overflow int32 after ~2 ms of sim time
                            and floats lose byte-exactness above 2^24, so
                            narrowing reintroduces exactly the silent
                            truncation the wrappers exist to prevent.
                            Cast to double / int64_t / uint64_t instead.
  SL009 shard-inventory     A mutable namespace-scope global, static
                            local, class-static, or thread_local without
                            a SIM_SHARD_SHARED annotation.  Experiments
                            run concurrently on sweep workers, so any
                            long-lived mutable state is shared between
                            them unless it is thread-local or
                            synchronised; the census scans everything
                            linked into the simulator (a sound
                            over-approximation, no silent gaps).
  SL011 non-reentrant-std   Non-reentrant C/C++ facilities: strtok,
                            strerror, asctime / ctime, setlocale, tmpnam,
                            setenv/putenv, or a function-local
                            `static std::string` scratch buffer.  All of
                            these carry hidden process-wide state that
                            races as soon as two experiments run at once.
  SL012 shard-annotation    Annotation hygiene: SIM_SHARD_SHARED with a
                            non-literal note or one too short to say how
                            access is synchronised.

  Retired IDs, never reused: SL010, SL013, SL014 and SL015 policed
  intra-replay sharding (domain containment, call-graph escapes, event
  handler purity, access sets) for a parallel event queue the replay
  never ran.

Shard report
------------
  --shard-report FILE  Writes the machine-readable shared-state inventory
                       (schema nvmooc-shard-report-v3: `shared` entries
                       with their synchronisation notes, plus any
                       `unannotated` strays) aggregated over the scanned
                       roots.  The checked-in SHARD_REPORT.json is
                       generated over src/.
  --shard-check FILE   Regenerates the inventory and fails (exit 1) on
                       any drift against FILE — new shared state is an
                       explicit reviewed decision, not an accident.

Allowlist hygiene
-----------------
  Suppressions must stay tethered to real findings.  When a tree scan
  finds an inline `simlint: allow(...)` that suppressed nothing, or a
  simlint.conf entry that matched no finding, the scan fails (the stale
  entry is dead armor — it will silently swallow the next real finding
  at that site).  --allowlist-audit downgrades staleness to a warning
  for incremental cleanup.

Parallelism & output
--------------------
  --jobs N          Lint translation units in parallel (default: the
                    machine's CPU count; findings and the report stay
                    deterministically sorted regardless of N).
  --format json     Machine-readable findings (file/line/rule/name/
                    message) instead of the gcc-style text lines the
                    GitHub problem matcher consumes.

Suppression
-----------
  Inline:     // simlint: allow(unordered-iter) -- reason
              on the offending line or the line directly above it.
  Allowlist:  tools/simlint/simlint.conf maps rules to path globs
              (e.g. the observability layer may read the wall clock to
              stamp Chrome-trace exports).

Exit status: 0 clean, 1 findings (or shard-report drift), 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_CONF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "simlint.conf")
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

RULE_NAMES = {
    "SL001": "wall-clock",
    "SL002": "ambient-rng",
    "SL003": "unordered-iter",
    "SL004": "float-to-time",
    "SL005": "default-seeded-rng",
    "SL006": "request-lifecycle",
    "SL007": "missing-nodiscard",
    "SL008": "unit-narrowing",
    "SL009": "shard-inventory",
    # SL010 and SL013-SL015 are retired (they policed intra-replay
    # sharding); their IDs are never reused.
    "SL011": "non-reentrant-std",
    "SL012": "shard-annotation",
}
NAME_TO_ID = {v: k for k, v in RULE_NAMES.items()}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        rel = os.path.relpath(self.path, REPO_ROOT)
        return f"{rel}:{self.line}: [{self.rule} {RULE_NAMES[self.rule]}] {self.message}"


# --------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literals so rules
# never fire on prose, while keeping line numbers stable.  Inline allow
# annotations are harvested from comments *before* stripping.  A second
# buffer keeps string literals intact (comments still blanked) so the
# shared-state rules can read SIM_SHARD_SHARED("...") notes, which live
# inside string literals by design.

ALLOW_RE = re.compile(r"simlint:\s*allow\(([\w\-*,\s]+)\)")


def preprocess(text: str):
    """Return (stripped_lines, allows, keep_lines) where allows maps
    line-no -> set of rule ids suppressed on that line and the next, and
    keep_lines is the comment-stripped text with string literals kept."""
    out = []
    allows = {}
    i = 0
    n = len(text)
    line = 1
    buf = []
    keep = []

    def note_allow(comment: str, lineno: int) -> None:
        m = ALLOW_RE.search(comment)
        if not m:
            return
        rules = set()
        for token in m.group(1).split(","):
            token = token.strip()
            if token == "*":
                rules.add("*")
            elif token in RULE_NAMES:
                rules.add(token)
            elif token in NAME_TO_ID:
                rules.add(NAME_TO_ID[token])
        allows.setdefault(lineno, set()).update(rules)

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            note_allow(text[i:j], line)
            buf.append(" " * (j - i))
            keep.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comment = text[i:j]
            note_allow(comment, line)
            for ch in comment:
                blanked = "\n" if ch == "\n" else " "
                buf.append(blanked)
                keep.append(blanked)
            line += comment.count("\n")
            i = j
        elif c == '"' or (c == "'" and not (i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"))):
            # A ' directly after an identifier character is a C++14 digit
            # separator (1'000'000), not a char literal — fall through to
            # plain-text handling for those.
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            # An unterminated literal stops at the newline; leave the
            # newline for the main loop so line numbering never drifts.
            terminated = j < n and text[j] == quote
            if terminated:
                j += 1
                buf.append(quote + " " * (j - i - 2) + quote)
            else:
                buf.append(quote + " " * (j - i - 1))
            keep.append(text[i:j])
            i = j
        else:
            if c == "\n":
                line += 1
            buf.append(c)
            keep.append(c)
            i += 1
    return "".join(buf).split("\n"), allows, "".join(keep).split("\n")


# --------------------------------------------------------------------------
# Include-closure resolution (for SL003 member-type lookup).

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


class IncludeGraph:
    """Resolves project-relative #include "..." directives the way the
    build does (-I src), memoizing each file's transitive closure."""

    def __init__(self, src_root: str):
        self.src_root = src_root
        self._direct = {}
        self._closure = {}

    def _resolve(self, from_file: str, inc: str):
        local = os.path.normpath(os.path.join(os.path.dirname(from_file), inc))
        if os.path.isfile(local):
            return local
        rooted = os.path.normpath(os.path.join(self.src_root, inc))
        if os.path.isfile(rooted):
            return rooted
        return None

    def direct(self, path: str):
        if path not in self._direct:
            deps = []
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    for raw in f:
                        m = INCLUDE_RE.match(raw)
                        if m:
                            resolved = self._resolve(path, m.group(1))
                            if resolved:
                                deps.append(resolved)
            except OSError:
                pass
            self._direct[path] = deps
        return self._direct[path]

    def closure(self, path: str):
        if path in self._closure:
            return self._closure[path]
        seen = set()
        stack = [path]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(self.direct(p))
        self._closure[path] = seen
        return seen


# Per-process cache of preprocessed files: path -> (lines, allows,
# keep_lines).  Closure texts were previously re-preprocessed for every
# linted TU; memoizing them is most of simlint's serial speedup.
_PRE_CACHE = {}
_HARVEST_CACHE = {}


def _preprocessed(path: str):
    cached = _PRE_CACHE.get(path)
    if cached is None:
        try:
            text = open(path, encoding="utf-8", errors="replace").read()
        except OSError:
            cached = ([], {}, [])
        else:
            cached = preprocess(text)
        _PRE_CACHE[path] = cached
    return cached


# --------------------------------------------------------------------------
# Matcher-engine rules.  Each takes the stripped lines (and context) and
# yields (lineno, rule_id, message).

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std\s*::\s*chrono\b"), "std::chrono"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w:.>])(?:gettimeofday|clock_gettime|timespec_get)\s*\("), "POSIX clock"),
    (re.compile(r"std\s*::\s*clock\s*\("), "std::clock()"),
    (re.compile(r"(?<![\w:.>])(?:localtime|gmtime|mktime)\s*\("), "calendar time"),
]

AMBIENT_RNG_PATTERNS = [
    (re.compile(r"(?<![\w:.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"random_device\b"), "random_device"),
    (re.compile(r"/dev/u?random"), "/dev/urandom"),
]

STD_ENGINES = r"(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?|ranlux(?:24|48)(?:_base)?|knuth_b)"
# An engine declared with no constructor argument: `std::mt19937 gen;` or
# `std::mt19937 gen{};` or `std::mt19937 gen{}` as a member.
DEFAULT_SEEDED_RE = re.compile(
    r"std\s*::\s*" + STD_ENGINES + r"\s+\w+\s*(?:;|\{\s*\}|\(\s*\))")

UNORDERED_DECL_RE = re.compile(
    r"(?<!\w)(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+(\w+)\s*(?:;|\{|=)")
ORDERED_DECL_RE = re.compile(
    r"(?<![\w_])(?:std\s*::\s*)?(?:map|set|multimap|multiset|vector|deque|array|list)\s*<[^;{}]*>\s+(\w+)\s*(?:;|\{|=)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^)]*)\)")
ITER_CALL_RE = re.compile(r"\b([\w.\->\[\]()]+?)[.\->]+(?:begin|cbegin|rbegin)\s*\(\s*\)")

FLOAT_TO_TIME_RE = re.compile(
    r"\bTime\s*\{(?=[^{}]*(?:\d\.\d|\.\d+\b|\d\.(?:[^\w]|$)|\de[+-]?\d|static_cast\s*<\s*(?:double|float)\s*>|\b(?:double|float)\b))")

# SL006: the probe's request lifecycle (src/common/probe.hpp).
# `on_request_close(` never matches — the subscriber hooks are not
# emissions.
PROBE_CLOSE_RE = re.compile(r"\brequest_close\s*\(")
PROBE_OPEN_RE = re.compile(r"\brequest_open\s*\(")

# SL007: a header declaration returning Time/Bytes by value.  References
# never match (no whitespace between the type and `&`), and a leading
# `const` fails the anchor, so `const Time&` accessors are skipped.
NODISCARD_SPECIFIERS = r"(?:(?:virtual|static|constexpr|inline|friend|explicit)\s+)*"
NODISCARD_DECL_RE = re.compile(
    r"^\s*" + NODISCARD_SPECIFIERS + r"(Time|Bytes)\s+([A-Za-z_]\w*)\s*\(")
NODISCARD_ATTR_RE = re.compile(r"\[\[\s*nodiscard\s*\]\]")

# SL008: the narrow destination types.  The trailing `>` in the consuming
# pattern anchors each alternative, so `int` never half-matches
# `int64_t` and `unsigned` never half-matches `unsigned long`.
NARROW_DEST = (r"(?:float|short|char|int|bool|"
               r"(?:un)?signed(?:\s+(?:short|char|int))?|"
               r"(?:std\s*::\s*)?u?int(?:8|16|32)_t)")
UNIT_NARROW_RE = re.compile(
    r"static_cast\s*<\s*(?:const\s+)?" + NARROW_DEST +
    r"\s*>\s*\(\s*[^()]*\.\s*(?:ps|value)\s*\(\s*\)")

# --------------------------------------------------------------------------
# Shared-state vocabulary (SL009, SL012).  See src/common/shard_domain.hpp
# for the annotation's contract.

# The note group only matches a string literal; a macro invoked with an
# identifier (SIM_SHARD_SHARED(kNote)) matches with note=None, which SL012
# reports — the matcher reads notes textually.
SHARED_ANNOT_RE = re.compile(
    r"\bSIM_SHARD_SHARED\s*\(\s*(?:\"(?P<note>[^\"]*)\"|[^)\"]*)\s*\)")
CLASS_SHARED_RE = re.compile(
    r"\b(?:class|struct)\s+SIM_SHARD_SHARED\s*\(\s*\"(?P<note>[^\"]*)\"\s*\)\s+(?P<name>[A-Za-z_]\w*)")

# The SL009 inventory: long-lived mutable state.  Three shapes, all
# line-local (the matcher does not parse declarations across lines — the
# project style keeps variable declarations on one line):
#   - thread_local at any scope;
#   - `static` non-const variables (function-local statics and class
#     statics alike — both are global state);
#   - namespace-scope definitions at zero indentation with an
#     initializer or a plain `Type name;` shape (function definitions
#     and declarations carry parentheses and never match).
_ANNOT_PREFIX = r'(?:SIM_SHARD_SHARED\s*\(\s*"[^"]*"\s*\)\s*)?'
TLS_VAR_RE = re.compile(
    r"^\s*" + _ANNOT_PREFIX +
    r"(?:inline\s+)?(?:static\s+)?thread_local\s+"
    r"(?P<type>[\w:<>,*&\s]+?)[\s*&]+(?P<name>[A-Za-z_]\w*)\s*(?:;|=[^=]|\{)")
STATIC_VAR_RE = re.compile(
    r"^\s*" + _ANNOT_PREFIX +
    r"(?:inline\s+)?static\s+(?!const\b|constexpr\b|inline\b|thread_local\b|assert\b)"
    r"(?P<type>[\w:<>,*&\s]+?)[\s*&]+(?P<name>[A-Za-z_]\w*)\s*(?:;|=[^=]|\{)")
NS_GLOBAL_RE = re.compile(
    r"^" + _ANNOT_PREFIX +
    r"(?:inline\s+)?"
    r"(?!const\b|constexpr\b|static\b|thread_local\b|using\b|typedef\b|class\b|struct\b"
    r"|enum\b|namespace\b|template\b|extern\b|return\b|friend\b|case\b|if\b|for\b"
    r"|while\b|else\b|do\b|switch\b|break\b|continue\b|goto\b|delete\b|new\b|inline\b"
    r"|public\b|private\b|protected\b|void\b|concept\b|requires\b)"
    r"(?P<type>(?:std\s*::\s*)?[A-Za-z_][\w:]*(?:\s*<[^;()]*>)?)[\s*&]+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\{[^;()]*\}\s*;|=[^;()]*;|;)\s*$")

NON_REENTRANT_PATTERNS = [
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*)?strtok\s*\("),
     "strtok(): hidden static parse state"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*)?strerror\s*\("),
     "strerror(): static result buffer"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*)?(?:asctime|ctime)\s*\("),
     "asctime()/ctime(): static result buffer"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*)?setlocale\s*\("),
     "setlocale(): process-wide locale mutation"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*)?tmpnam\s*\("),
     "tmpnam(): static name buffer"),
    (re.compile(r"(?<![\w.>])(?:setenv|putenv|unsetenv)\s*\("),
     "environment mutation is process-wide and unsynchronised"),
    (re.compile(r"^\s*static\s+(?:std\s*::\s*)?"
                r"(?:string|stringstream|ostringstream|wstring)\s+[A-Za-z_]\w*\s*(?:;|=[^=]|\{)"),
     "function-local static string scratch buffer"),
]


def _sequence_name(expr: str):
    """Extract a trailing identifier from a range-for sequence expression
    (e.g. `wear.erase_counts_` -> `erase_counts_`)."""
    expr = expr.strip()
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr)
    return m.group(1) if m else None


# --------------------------------------------------------------------------
# Shared-state harvesting: SIM_SHARD_SHARED annotations, shared-annotated
# classes, and the mutable-state inventory of one file (computed on the
# keep-strings view so annotation notes survive).

def harvest_shard(path: str):
    cached = _HARVEST_CACHE.get(path)
    if cached is not None:
        return cached
    _, _, keep_lines = _preprocessed(path)
    annotations = []     # (lineno, note-or-None)
    shared_classes = []  # {line, name, note}
    entries = []         # {line, name, kind, note: None | note-or-None}
    annotated = {}       # lineno -> note (None for a non-literal note)
    for lineno, line in enumerate(keep_lines, 1):
        if line.lstrip().startswith("#"):
            # The macro definition itself (and conditional-compilation
            # plumbing) lives on preprocessor lines; it is vocabulary,
            # not an annotation.
            continue
        for m in SHARED_ANNOT_RE.finditer(line):
            annotations.append((lineno, m.group("note")))
            annotated[lineno] = m.group("note")
        m = CLASS_SHARED_RE.search(line)
        if m:
            shared_classes.append({"line": lineno, "name": m.group("name"),
                                   "note": m.group("note")})
    class_lines = {c["line"] for c in shared_classes}
    for lineno, line in enumerate(keep_lines, 1):
        if lineno in class_lines:
            continue
        kind = None
        m = TLS_VAR_RE.match(line)
        if m:
            kind = "thread_local"
        else:
            m = STATIC_VAR_RE.match(line)
            if m:
                kind = "static"
            else:
                m = NS_GLOBAL_RE.match(line)
                if m:
                    kind = "global"
        if not kind:
            continue
        entry = {"line": lineno, "name": m.group("name"), "kind": kind,
                 "annotated": False, "note": None}
        for ln in (lineno, lineno - 1):
            if ln in annotated:
                entry["annotated"] = True
                entry["note"] = annotated[ln]
                break
        entries.append(entry)
    result = {"annotations": annotations, "shared_classes": shared_classes,
              "entries": entries}
    _HARVEST_CACHE[path] = result
    return result


def run_shard_rules(path: str):
    """SL009 and SL012 over one file."""
    findings = []
    harvest = harvest_shard(path)

    # SL012: annotation hygiene first — a malformed annotation must not
    # silently satisfy SL009.
    for lineno, note in harvest["annotations"]:
        if note is None or len(note.strip()) < 8:
            findings.append((lineno, "SL012",
                             "SIM_SHARD_SHARED needs a string-literal "
                             "synchronisation note saying how shared access "
                             "is made safe"))

    # SL009: unannotated inventory entries.
    for entry in harvest["entries"]:
        if not entry["annotated"]:
            findings.append((entry["line"], "SL009",
                             f"mutable {entry['kind']} `{entry['name']}` is not "
                             "annotated; make it const, move it into the "
                             "experiment's own objects, or declare "
                             "SIM_SHARD_SHARED(\"how access is synchronised\") "
                             "on or above this line"))
    return findings


def run_matcher_rules(path: str, lines, closure_texts):
    findings = []
    joined = "\n".join(lines)

    for lineno, line in enumerate(lines, 1):
        for pattern, what in WALL_CLOCK_PATTERNS:
            if pattern.search(line):
                findings.append((lineno, "SL001",
                                 f"{what}: wall-clock source in simulation code; "
                                 "use the simulated clock (Time) instead"))
                break
        for pattern, what in AMBIENT_RNG_PATTERNS:
            if pattern.search(line):
                findings.append((lineno, "SL002",
                                 f"{what}: ambient randomness; thread a seeded "
                                 "nvmooc::Rng through instead"))
                break
        for pattern, what in NON_REENTRANT_PATTERNS:
            if pattern.search(line):
                findings.append((lineno, "SL011",
                                 f"{what}; non-reentrant state races once "
                                 "experiments run concurrently — use a "
                                 "reentrant or caller-owned alternative"))
                break
        if DEFAULT_SEEDED_RE.search(line):
            findings.append((lineno, "SL005",
                             "std <random> engine without an explicit seed; "
                             "pass a seed so replay is auditable"))
        if UNIT_NARROW_RE.search(line):
            findings.append((lineno, "SL008",
                             ".ps()/.value() narrowed below 64 bits; cast to "
                             "double or (u)int64_t, or keep the strong type"))

    # SL006: a request closed on the probe in a TU that never opens one
    # reaches the auditor and the profiler as a completion with no issue.
    # The check is per-TU: the open and the close legally live in
    # different functions.
    if not PROBE_OPEN_RE.search(joined):
        for lineno, line in enumerate(lines, 1):
            if PROBE_CLOSE_RE.search(line):
                findings.append((lineno, "SL006",
                                 "request_close() emitted but request_open() "
                                 "never appears in this translation unit; "
                                 "subscribers will see a completion with no "
                                 "issue"))

    # SL007: headers only.  The attribute may sit on the declaration line
    # or the line above (clang-format splits long signatures there).
    if path.endswith((".hpp", ".h")):
        for lineno, line in enumerate(lines, 1):
            m = NODISCARD_DECL_RE.search(line)
            if m is None or m.group(2) == "operator":
                continue
            prev = lines[lineno - 2] if lineno >= 2 else ""
            if NODISCARD_ATTR_RE.search(line) or NODISCARD_ATTR_RE.search(prev):
                continue
            findings.append((lineno, "SL007",
                             f"`{m.group(2)}` returns {m.group(1)} by value "
                             "without [[nodiscard]]; dropping a unit-typed "
                             "result is always a bug"))

    # SL004 scans the joined text so a Time{...} construct split across
    # lines (clang-format loves these) is still seen whole; [^{}]* keeps
    # the lookahead inside the braced initializer.
    for m in FLOAT_TO_TIME_RE.finditer(joined):
        lineno = joined.count("\n", 0, m.start()) + 1
        findings.append((lineno, "SL004",
                         "floating-point expression constructs Time directly; "
                         "use from_seconds() (single documented rounding site)"))

    # SL003: iteration over unordered containers.
    #  a) the sequence expression itself names an unordered type;
    #  b) the sequence is an identifier declared as an unordered container
    #     somewhere in this TU's in-project include closure — and nowhere
    #     declared as an ordered one (ambiguous names are skipped so a
    #     member like `erase_counts_` that is ordered in one class and
    #     unordered in another never yields a false positive).
    def container_kinds(name: str):
        unordered = ordered = False
        for text in closure_texts:
            for m in UNORDERED_DECL_RE.finditer(text):
                if m.group(1) == name:
                    unordered = True
            for m in ORDERED_DECL_RE.finditer(text):
                if m.group(1) == name:
                    ordered = True
        return unordered, ordered

    for m in RANGE_FOR_RE.finditer(joined):
        seq = m.group(2)
        lineno = joined.count("\n", 0, m.start()) + 1
        if re.search(r"unordered_(?:map|set|multimap|multiset)", seq):
            findings.append((lineno, "SL003",
                             "range-for over an unordered container; iteration "
                             "order is not replay-stable"))
            continue
        name = _sequence_name(seq)
        if not name:
            continue
        unordered, ordered = container_kinds(name)
        if unordered and not ordered:
            findings.append((lineno, "SL003",
                             f"range-for over `{name}`, declared as an unordered "
                             "container; iteration order is not replay-stable"))

    for m in ITER_CALL_RE.finditer(joined):
        name = _sequence_name(m.group(1))
        if not name:
            continue
        lineno = joined.count("\n", 0, m.start()) + 1
        unordered, ordered = container_kinds(name)
        if unordered and not ordered:
            findings.append((lineno, "SL003",
                             f"iterator walk over `{name}`, declared as an "
                             "unordered container; order is not replay-stable"))

    findings.extend(run_shard_rules(path))
    return findings


# --------------------------------------------------------------------------
# Configuration and driver.

def load_conf(conf_path: str):
    """Allowlist: `<rule-id-or-name> <path glob relative to repo root>`."""
    allow = []
    if not os.path.isfile(conf_path):
        return allow
    with open(conf_path, encoding="utf-8") as f:
        for raw in f:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                print(f"simlint: bad conf line ignored: {stripped!r}", file=sys.stderr)
                continue
            rule, glob = parts
            rule_id = rule if rule in RULE_NAMES else NAME_TO_ID.get(rule)
            if rule_id is None and rule != "*":
                print(f"simlint: unknown rule in conf: {rule!r}", file=sys.stderr)
                continue
            allow.append((rule_id or "*", glob))
    return allow


def conf_match(allowlist, rule: str, rel_path: str):
    """Index of the first allowlist entry exempting (rule, path), or None.
    The index is what the staleness audit tracks: an entry whose index is
    never returned over a full tree scan suppressed nothing."""
    for i, (allowed_rule, glob) in enumerate(allowlist):
        if allowed_rule not in ("*", rule):
            continue
        if fnmatch.fnmatch(rel_path, glob) or fnmatch.fnmatch(rel_path, glob.rstrip("/") + "/*"):
            return i
    return None


def conf_allows(allowlist, rule: str, rel_path: str) -> bool:
    return conf_match(allowlist, rule, rel_path) is not None


def discover_files(compile_commands: str, roots):
    """TU sources from compile_commands.json plus all project headers under
    the given roots; falls back to a plain glob when the database is
    missing (e.g. tree not configured yet).  The simlint reject fixtures
    are deliberately-violating inputs for --self-test, never tree
    findings, so they are excluded even when a root contains them."""
    files = set()
    if compile_commands and os.path.isfile(compile_commands):
        with open(compile_commands, encoding="utf-8") as f:
            for entry in json.load(f):
                src = os.path.normpath(os.path.join(entry.get("directory", ""), entry["file"]))
                if any(src.startswith(os.path.abspath(r) + os.sep) for r in roots):
                    files.add(src)
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name.endswith((".hpp", ".h", ".cpp", ".cc")):
                    files.add(os.path.join(dirpath, name))
    fixture_prefix = FIXTURE_DIR + os.sep
    return sorted(f for f in files if not f.startswith(fixture_prefix))


def lint_file(path: str, graph: IncludeGraph, allowlist):
    """Returns (findings, stale_inline, used_conf): the surviving
    findings, the inline allow() annotations that suppressed nothing
    (lineno, rules), and the indices of allowlist entries that fired."""
    lines, inline_allows, _ = _preprocessed(path)
    if not lines:
        print(f"simlint: cannot read {path}", file=sys.stderr)
        return [], [], set()

    closure_texts = []
    for dep in graph.closure(path):
        dep_lines, _, _ = _preprocessed(dep)
        if dep_lines:
            closure_texts.append("\n".join(dep_lines))

    raw = run_matcher_rules(path, lines, closure_texts)

    rel = os.path.relpath(path, REPO_ROOT)
    findings = []
    seen = set()
    used_inline = set()
    used_conf = set()
    for lineno, rule, message in raw:
        key = (lineno, rule)
        if key in seen:
            continue
        seen.add(key)
        suppressed = inline_allows.get(lineno, set()) | inline_allows.get(lineno - 1, set())
        if rule in suppressed or "*" in suppressed:
            for ln in (lineno, lineno - 1):
                s = inline_allows.get(ln, set())
                if rule in s or "*" in s:
                    used_inline.add(ln)
            continue
        idx = conf_match(allowlist, rule, rel)
        if idx is not None:
            used_conf.add(idx)
            continue
        findings.append(Finding(path, lineno, rule, message))
    stale_inline = [(ln, tuple(sorted(rules)))
                    for ln, rules in sorted(inline_allows.items())
                    if rules and ln not in used_inline]
    return findings, stale_inline, used_conf


# --------------------------------------------------------------------------
# Shard report: the machine-readable inventory of deliberately shared
# mutable state (and of any unannotated strays).  Regenerated with
# --shard-report, gated with --shard-check.  Line numbers are deliberately
# omitted so unrelated edits do not churn the checked-in contract;
# symbols are keyed by file and kind.

SHARD_REPORT_SCHEMA = "nvmooc-shard-report-v3"


def build_shard_report(files):
    shared = []
    unannotated = []
    for path in files:
        rel = os.path.relpath(path, REPO_ROOT)
        h = harvest_shard(path)
        for c in h["shared_classes"]:
            shared.append({"file": rel, "symbol": c["name"], "kind": "class",
                           "note": c["note"]})
        for e in h["entries"]:
            if e["annotated"]:
                shared.append({"file": rel, "symbol": e["name"],
                               "kind": e["kind"], "note": e["note"] or ""})
            else:
                unannotated.append({"file": rel, "symbol": e["name"],
                                    "kind": e["kind"]})
    shared.sort(key=lambda s: (s["file"], s["symbol"]))
    unannotated.sort(key=lambda s: (s["file"], s["symbol"]))
    return {"schema": SHARD_REPORT_SCHEMA, "shared": shared,
            "unannotated": unannotated}


def shard_report_json(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def diff_shard_reports(old, new):
    """Human-readable drift lines between two report dicts (empty = same)."""
    lines = []
    if old == new:
        return lines

    def flatten(report):
        flat = set()
        for entry in report.get("shared", []):
            flat.add(f"shared {entry['file']} {entry['kind']}:{entry['symbol']}")
        for entry in report.get("unannotated", []):
            flat.add(f"unannotated {entry['file']} {entry['kind']}:{entry['symbol']}")
        return flat

    old_flat, new_flat = flatten(old), flatten(new)
    for item in sorted(new_flat - old_flat):
        lines.append(f"  + {item}")
    for item in sorted(old_flat - new_flat):
        lines.append(f"  - {item}")
    if not lines:
        lines.append("  (note text or schema metadata changed)")
    return lines


# --------------------------------------------------------------------------
# Parallel scanning.  Workers are processes (the regex engine holds the
# GIL); each builds its own include-graph lazily and memoizes closures,
# and results are reassembled in input order so output is deterministic
# for any --jobs value.

_WORKER = {}


def _worker_init(src_root, allowlist):
    _WORKER["graph"] = IncludeGraph(src_root)
    _WORKER["allowlist"] = allowlist


def _lint_one(path):
    findings, stale_inline, used_conf = lint_file(
        path, _WORKER["graph"], _WORKER["allowlist"])
    return ([(f.path, f.line, f.rule, f.message) for f in findings],
            [(path, ln, rules) for ln, rules in stale_inline],
            sorted(used_conf))


def lint_tree(files, allowlist, src_root, jobs):
    """Lint every file, in parallel when jobs > 1.  Returns
    (findings, stale_inline, used_conf): Findings in deterministic
    (path, line) order regardless of worker count, the inline allow()
    annotations that suppressed nothing as (path, line, rules), and the
    set of allowlist indices that fired anywhere in the scan."""
    per_file = None
    if jobs > 1 and len(files) >= 4:
        try:
            import multiprocessing as mp
            ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
                else mp.get_context()
            with ctx.Pool(processes=min(jobs, len(files)),
                          initializer=_worker_init,
                          initargs=(src_root, allowlist)) as pool:
                per_file = pool.map(_lint_one, files, chunksize=4)
        except (ImportError, OSError) as e:
            print(f"simlint: parallel scan unavailable ({e}); running serially",
                  file=sys.stderr)
            per_file = None
    if per_file is None:
        _worker_init(src_root, allowlist)
        per_file = [_lint_one(path) for path in files]
    findings = [Finding(*tup) for tups, _, _ in per_file for tup in tups]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    stale_inline = sorted(rec for _, stale, _ in per_file for rec in stale)
    used_conf = {i for _, _, used in per_file for i in used}
    return findings, stale_inline, used_conf


# --------------------------------------------------------------------------
# Self-test: every fixture carries `// simlint-expect: SL00X` markers on
# its violating lines; the checker must report exactly those findings.

EXPECT_RE = re.compile(r"//\s*simlint-expect:\s*(SL\d{3}(?:\s*,\s*SL\d{3})*)")


def self_test() -> int:
    failures = 0
    fixtures = sorted(
        os.path.join(FIXTURE_DIR, f)
        for f in os.listdir(FIXTURE_DIR)
        if f.endswith((".cpp", ".hpp", ".h")))
    if not fixtures:
        print("simlint --self-test: no fixtures found", file=sys.stderr)
        return 2
    graph = IncludeGraph(FIXTURE_DIR)
    for path in fixtures:
        expected = set()
        expected_stale = set()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                m = EXPECT_RE.search(line)
                if m:
                    for rule in re.split(r"\s*,\s*", m.group(1)):
                        expected.add((lineno, rule))
                if "simlint-expect-stale" in line:
                    expected_stale.add(lineno)
        file_findings, file_stale, _ = lint_file(path, graph, [])
        got = {(f.line, f.rule) for f in file_findings}
        got_stale = {ln for ln, _ in file_stale}
        name = os.path.basename(path)
        missing = expected - got
        spurious = got - expected
        if got_stale != expected_stale:
            failures += 1
            print(f"FAIL {name} (stale allows: expected lines "
                  f"{sorted(expected_stale)}, got {sorted(got_stale)})")
        if missing or spurious:
            failures += 1
            print(f"FAIL {name}")
            for lineno, rule in sorted(missing):
                print(f"  expected but not reported: line {lineno} {rule}")
            for lineno, rule in sorted(spurious):
                print(f"  reported but not expected: line {lineno} {rule}")
        else:
            label = f"{len(expected)} expected finding(s)" if expected else "clean"
            print(f"PASS {name} ({label})")
    # Conf-scope assertions: the checked-in allowlist must exempt exactly
    # the sanctioned wall-clock site and nothing that executes simulation
    # arithmetic. A conf edit that silently widens the wall-clock scope
    # (back to a whole directory, say) fails here before it lands.
    allowlist = load_conf(DEFAULT_CONF)
    scope_cases = [
        ("SL001", "src/common/wallclock.cpp", True),
        ("SL001", "src/common/stats.cpp", False),
        ("SL001", "src/obs/host_profiler.cpp", False),
        ("SL001", "src/obs/trace_recorder.cpp", False),
        ("SL001", "src/cluster/engine.cpp", False),
        ("SL001", "src/sim/timeline.cpp", False),
        ("SL001", "examples/ooc_eigensolver.cpp", False),
        ("SL004", "src/common/units.hpp", True),
        ("SL004", "src/cluster/engine.cpp", False),
        ("SL009", "src/sim/timeline.hpp", False),
        ("SL011", "src/cluster/engine.cpp", False),
        ("SL012", "src/common/shard_domain.hpp", False),
    ]
    for rule, rel, want in scope_cases:
        got_allowed = conf_allows(allowlist, rule, rel)
        if got_allowed != want:
            failures += 1
            verb = "exempts" if got_allowed else "does not exempt"
            print(f"FAIL conf-scope: allowlist {verb} {rule} in {rel} "
                  f"(expected {'exempt' if want else 'reported'})")
        else:
            print(f"PASS conf-scope: {rule} {rel} "
                  f"({'exempt' if want else 'reported'})")
    # Shard-report smoke: the reject fixtures must aggregate into a
    # report that carries their shared notes and unannotated strays — the
    # same code path CI's drift gate runs over src/.
    report = build_shard_report(fixtures)
    report_cases = [
        (bool(report["unannotated"]), "unannotated strays from sl009 fixture"),
        (any(e["note"] for e in report["shared"]), "shared note round-trip"),
        (any(e["kind"] == "class" for e in report["shared"]),
         "shared-annotated class"),
        (report["schema"] == SHARD_REPORT_SCHEMA and
         set(report) == {"schema", "shared", "unannotated"}, "schema is v3"),
    ]
    for ok, what in report_cases:
        if not ok:
            failures += 1
            print(f"FAIL shard-report: missing {what}")
        else:
            print(f"PASS shard-report: {what}")
    if failures:
        print(f"simlint --self-test: {failures} fixture(s) failed")
        return 1
    print(f"simlint --self-test: all {len(fixtures)} fixtures pass")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--compile-commands",
                        default=os.path.join(REPO_ROOT, "build", "compile_commands.json"),
                        help="compilation database for TU discovery")
    parser.add_argument("--config", default=DEFAULT_CONF, help="allowlist file")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="parallel worker processes (default: CPU count; "
                             "output order is deterministic either way)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="finding output format (json for machine consumers)")
    parser.add_argument("--shard-report", metavar="FILE",
                        help="write the shared-state inventory JSON")
    parser.add_argument("--shard-check", metavar="FILE",
                        help="fail on inventory drift against a checked-in report")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule against the checked-in fixtures")
    parser.add_argument("--allowlist-audit", action="store_true",
                        help="downgrade stale-allowlist findings from errors "
                             "to warnings (default: stale suppressions fail)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, name in sorted(RULE_NAMES.items()):
            print(f"{rule_id}  {name}")
        return 0
    if args.self_test:
        return self_test()

    src_root = os.path.join(REPO_ROOT, "src")
    roots = []
    explicit_files = []
    for p in args.paths or [src_root]:
        p = os.path.abspath(p)
        if os.path.isdir(p):
            roots.append(p)
        elif os.path.isfile(p):
            explicit_files.append(p)
        else:
            print(f"simlint: no such path: {p}", file=sys.stderr)
            return 2

    allowlist = load_conf(args.config)
    files = discover_files(args.compile_commands, roots) if roots else []
    files = sorted(set(files) | set(explicit_files))

    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    all_findings, stale_inline, used_conf = lint_tree(files, allowlist, src_root, jobs)

    # Allowlist hygiene: an inline allow() that suppressed nothing, or a
    # conf entry that matched nothing, is a stale suppression — the code
    # it excused has moved or been fixed, and leaving it in place would
    # silently excuse a future regression at the same site.  Conf entries
    # are only audited on directory scans, and only when the scan actually
    # covered the entry's path: a single-file invocation (or a scan rooted
    # elsewhere, e.g. a src-only pass with an entry scoped to bench/) never
    # exercises entries outside its scope, which proves nothing about them.
    stale_msgs = []
    for path, lineno, rules in stale_inline:
        rel = os.path.relpath(path, REPO_ROOT)
        stale_msgs.append(f"{rel}:{lineno}: stale inline allow({', '.join(rules)}) "
                          "— it suppressed no finding in this scan")
    if roots:
        scanned_rel = [os.path.relpath(f, REPO_ROOT) for f in files]
        for i, (rule, glob) in enumerate(allowlist):
            if i in used_conf:
                continue
            in_scope = any(
                fnmatch.fnmatch(rel, glob)
                or fnmatch.fnmatch(rel, glob.rstrip("/") + "/*")
                for rel in scanned_rel)
            if in_scope:
                stale_msgs.append(f"{os.path.relpath(args.config, REPO_ROOT)}: "
                                  f"stale allowlist entry ({rule} {glob}) — "
                                  "it matched no finding in this scan")
    stale_failed = bool(stale_msgs) and not args.allowlist_audit
    for msg in stale_msgs:
        severity = "warning" if args.allowlist_audit else "error"
        print(f"simlint: {severity}: {msg}", file=sys.stderr)

    if args.format == "json":
        payload = {
            "files_scanned": len(files),
            "findings": [
                {"file": os.path.relpath(f.path, REPO_ROOT), "line": f.line,
                 "rule": f.rule, "name": RULE_NAMES[f.rule], "message": f.message}
                for f in all_findings
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in all_findings:
            print(finding)

    drift = False
    if args.shard_report or args.shard_check:
        report = build_shard_report(files)
        if args.shard_report:
            with open(args.shard_report, "w", encoding="utf-8") as f:
                f.write(shard_report_json(report))
            print(f"simlint: shard report written to {args.shard_report}",
                  file=sys.stderr)
        if args.shard_check:
            try:
                with open(args.shard_check, encoding="utf-8") as f:
                    pinned = json.load(f)
            except (OSError, ValueError) as e:
                print(f"simlint: cannot load shard report {args.shard_check}: {e}",
                      file=sys.stderr)
                return 2
            diff_lines = diff_shard_reports(pinned, report)
            if diff_lines:
                drift = True
                print(f"simlint: shard inventory drift vs {args.shard_check} — "
                      "new shared state must be reviewed and the report "
                      "regenerated with --shard-report:", file=sys.stderr)
                for line in diff_lines:
                    print(line, file=sys.stderr)
            else:
                print(f"simlint: shard inventory matches {args.shard_check}",
                      file=sys.stderr)

    if all_findings:
        print(f"simlint: {len(all_findings)} finding(s) in {len(files)} file(s)",
              file=sys.stderr)
        return 1
    if drift or stale_failed:
        return 1
    print(f"simlint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
