#!/usr/bin/env python3
"""gdur-lint: determinism / protocol-contract / lockset linter for G-DUR.

The simulator's core invariant is byte-identical replay: the same seed and
config must produce the same trace on every run, on every machine. The rules
here fence off the three ways that invariant historically broke (wall clocks,
hash-order iteration, blocking the event loop) plus two structural contracts
(every ProtocolSpec pins every realization point; every GUARDED_BY field is
accessed under its mutex).

Rules
-----
  determinism/wallclock    rand()/random_device/system_clock/steady_clock &c.
                           anywhere under src/ except src/live/ and
                           src/front/ (the live runtime and the production
                           front door are *supposed* to read real clocks).
  determinism/unordered-iter
                           range-for over a std::unordered_{map,set} in
                           src/{core,sim,protocols,obs,comm,checker} — hash
                           order must never feed message schedules, traces,
                           certification order, or checker output.
  live/blocking-call       blocking syscalls / sleeps in src/live/, in
                           src/comm/ (its handlers run on site mailbox
                           threads in live mode), and in the front-door
                           dispatch path — src/front/ outside reactor.cpp
                           (the reactor's wait owns blocking), client.cpp
                           (client-side code blocks by design) and
                           signals.cpp (interruptible_sleep is a sanctioned
                           sleep). FrontServer handlers run on the site
                           mailbox thread; a sleep or blocking syscall there
                           stalls the whole replica.
  front/dispatch-alloc     allocation or sleep inside the reactor demux
                           functions (run_epoll, drain_control,
                           update_interest in src/front/reactor.cpp) — the
                           wait / interest re-arm / readiness fan-out path
                           is allocation-free by contract (reactor.h);
                           buffer growth belongs to the per-connection
                           read/write handlers.
  protocol/spec-complete   a factory that builds a fresh core::ProtocolSpec
                           must assign every realization point (name, theta,
                           choose, ac, xcast, certifying, vote_snd,
                           vote_recv, commute, certify) or inherit a named
                           default via `auto s = other_factory();`.
  membership/hardcoded-sites
                           a counter loop over the whole site universe
                           (`for (SiteId s = 0; s < ...sites(); ++s)` and
                           n_sites variants) in src/{core,protocols,comm} —
                           destinations and quorums must flow through the
                           MembershipView of the transaction's epoch, or the
                           loop silently includes retired sites and excludes
                           joiners.
  obs/hot-path-alloc       allocation, lock acquisition, container growth, or
                           a clock read inside a telemetry hot-path function
                           (record/record_*/append/poke) under src/obs/ —
                           the record path's contract is one relaxed atomic
                           op; timestamps are passed in by the caller.
  thread/shard-affinity    the sharded-certification contracts: (a) a
                           certify function (takes const CertContext&) that
                           walks the transaction footprint (ctx.txn.ws /
                           ctx.txn.reads) must gate each object on
                           ctx.owns(o) — under shards_per_site > 1 each
                           shard casts a sub-vote over its own slice and the
                           sub-votes AND-combine; an ungated walk re-judges
                           the full footprint on every shard. (b) per-shard
                           scheduling state (lane clocks, shard mailboxes,
                           shard mutexes) is owned by the cluster layer
                           (core/cluster.*, live/live_cluster.*); all other
                           code must go through run_certify / run_apply /
                           with_apply_exclusion.
  thread/guarded-by        a field declared GUARDED_BY(mu) is referenced in a
                           function body that neither holds a MutexLock on
                           mu, nor is annotated REQUIRES(mu) (at any
                           declaration), nor opts out with
                           NO_THREAD_SAFETY_ANALYSIS. A portable (textual)
                           shadow of Clang's -Wthread-safety so the invariant
                           holds even under GCC-only toolchains.
  lint/bad-allow           an allow comment with no reason, or naming an
                           unknown rule.
  lint/stale-allow         (only with --check-allows) an allow comment that
                           suppressed nothing — the rule no longer fires on
                           that line, so the comment is dead weight that
                           would silently re-arm if the code regressed
                           somewhere else. Delete it (or fix the line number
                           drift that orphaned it).
  build/untracked-tu       (only with --compile-commands) a src/**/*.cpp not
                           listed in compile_commands.json — catches stale
                           globs that silently drop a TU from the build.

Suppression
-----------
A diagnostic on line N is suppressed by an allow comment on line N or N-1:

    // gdur-lint: allow(rule-id[, rule-id...]) mandatory reason text

The reason is not optional: an allow() without one is itself an error.

Output is `file:line: rule-id: message`, one per line; exit 1 if anything
was reported, 0 when clean, 2 on usage errors.

Self-test: `gdur_lint.py --self-test` runs the rules over the corpus in
tools/gdur_lint/corpus/.  Each corpus file declares its pretend location
with `// lint-as: src/...` (rules are path-scoped); files under corpus/bad/
mark every expected diagnostic with `// expect: rule-id` on the same line,
and the produced set must match the expected set exactly.  Files under
corpus/good/ must produce nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "determinism/wallclock",
    "determinism/unordered-iter",
    "live/blocking-call",
    "front/dispatch-alloc",
    "protocol/spec-complete",
    "membership/hardcoded-sites",
    "obs/hot-path-alloc",
    "thread/shard-affinity",
    "thread/guarded-by",
    "lint/bad-allow",
    "lint/stale-allow",
    "build/untracked-tu",
}

# Realization points of the ProtocolSpec plug-in table (§3-§6 of the paper).
SPEC_POINTS = [
    "name", "theta", "choose", "ac", "xcast",
    "certifying", "vote_snd", "vote_recv", "commute", "certify",
]

WALLCLOCK_PATTERNS = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "std::chrono::high_resolution_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time()"),
]

BLOCKING_PATTERNS = [
    (re.compile(r"(?<![\w.])::poll\s*\("), "::poll()"),
    (re.compile(r"\bepoll_wait\s*\("), "epoll_wait()"),
    (re.compile(r"(?<![\w.])::select\s*\("), "::select()"),
    (re.compile(r"\bsleep_for\s*\("), "std::this_thread::sleep_for()"),
    (re.compile(r"\bsleep_until\s*\("), "std::this_thread::sleep_until()"),
    (re.compile(r"\busleep\s*\("), "usleep()"),
    (re.compile(r"\bnanosleep\s*\("), "nanosleep()"),
    (re.compile(r"(?<![\w.])::read\s*\("), "blocking ::read()"),
    (re.compile(r"(?<![\w.])::recv\s*\("), "blocking ::recv()"),
    (re.compile(r"(?<![\w.])::recvfrom\s*\("), "blocking ::recvfrom()"),
    (re.compile(r"(?<![\w.])::recvmsg\s*\("), "blocking ::recvmsg()"),
    (re.compile(r"(?<![\w.])::send\s*\("), "blocking ::send()"),
    (re.compile(r"(?<![\w.])::sendto\s*\("), "blocking ::sendto()"),
    (re.compile(r"(?<![\w.])::sendmsg\s*\("), "blocking ::sendmsg()"),
    (re.compile(r"(?<![\w.])::accept\s*\("), "blocking ::accept()"),
    (re.compile(r"(?<![\w.])::connect\s*\("), "blocking ::connect()"),
]

UNORDERED_DIRS = ("src/core/", "src/sim/", "src/protocols/", "src/obs/",
                  "src/comm/", "src/checker/")

# Telemetry record paths (obs/hot-path-alloc): function names treated as hot,
# and the constructs they must not contain. The contract (obs/stats.h):
# a record path is one relaxed atomic op — no allocation, no lock, no clock.
HOT_PATH_FN_RE = re.compile(r"^(?:record(?:_\w+)?|append|poke)$")

HOT_PATH_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "malloc-family call"),
    (re.compile(r"\b(?:push_back|emplace_back|emplace|insert|resize"
                r"|reserve|push_front)\s*\("), "container growth"),
    (re.compile(r"\bstd\s*::\s*string\b"), "std::string construction"),
    (re.compile(r"\bmake_(?:unique|shared)\s*\("), "heap allocation"),
    (re.compile(r"\bMutexLock\b"), "MutexLock acquisition"),
    (re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
     "lock acquisition"),
    (re.compile(r"(?:\.|->)\s*lock\s*\(\s*\)"), "explicit .lock()"),
    (re.compile(r"\bnow\s*\(\s*\)"), "clock read (pass the timestamp in)"),
]

# Reactor demux functions (front/dispatch-alloc): the wait / interest
# re-arm / readiness fan-out path is allocation-free by contract
# (front/reactor.h). The accept and read handlers are absent: they own
# connection-state and input-buffer growth.
DISPATCH_FN_RE = re.compile(r"^(?:run_epoll|drain_control|update_interest)$")

DISPATCH_ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "malloc-family call"),
    (re.compile(r"\b(?:push_back|emplace_back|emplace|insert|resize"
                r"|reserve|push_front)\s*\("), "container growth"),
    (re.compile(r"\bstd\s*::\s*string\b"), "std::string construction"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "heap allocation"),
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "sleep"),
    (re.compile(r"\b(?:usleep|nanosleep)\s*\("), "sleep"),
]

MEMBERSHIP_DIRS = ("src/core/", "src/protocols/", "src/comm/")

# `for (SiteId s = 0; s < <count of sites>; ++s)` — a loop over the whole
# site universe. Matches sites()/n_sites/num_sites/.sites bounds; the loop
# variable must start at 0 (slices and partition-replica loops don't).
HARDCODED_SITES_RE = re.compile(
    r"for\s*\(\s*(?:core\s*::\s*)?(?:SiteId|int|unsigned|long|std::uint\d+_t"
    r"|std::size_t|size_t|auto)\s+(\w+)\s*=\s*0\s*;[^;]*?\b\1\s*<[^;]*?"
    r"(?:\bsites\s*\(\)|\bn_sites\b|\bnum_sites\b|\.sites\b|->\s*sites\b)"
    r"[^;]*;")

ALLOW_RE = re.compile(r"//\s*gdur-lint:\s*allow\(([^)]*)\)(.*)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([\w/\-]+)")
LINT_AS_RE = re.compile(r"//\s*lint-as:\s*(\S+)")


@dataclass
class Diag:
    path: str
    line: int
    rule: str
    msg: str


@dataclass
class SourceFile:
    """A parsed source file: raw text plus a comment/string-blanked twin.

    `code` has every comment and string/char literal replaced by spaces of
    equal length, so rule regexes never fire inside prose or string data and
    every offset maps 1:1 back to `raw` for line numbers.
    """
    path: str       # lint path (used for scoping + reporting)
    raw: str
    code: str = ""
    allows: dict[int, tuple[list[str], str]] = field(default_factory=dict)
    bad_allows: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.code = blank_comments_and_strings(self.raw)
        for i, line in enumerate(self.raw.splitlines(), start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
            # The reason ends at a nested `//` (e.g. corpus expect markers).
            reason = m.group(2).split("//")[0].strip()
            self.allows[i] = (rules, reason)
            if not reason or any(r not in RULES for r in rules):
                self.bad_allows.append(i)

    def line_of(self, offset: int) -> int:
        return self.raw.count("\n", 0, offset) + 1


def blank_comments_and_strings(text: str) -> str:
    out = list(text)
    i, n = 0, len(text)
    NONE, LINE, BLOCK, STR, CHR, RAWSTR = range(6)
    state = NONE
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NONE:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "R" and nxt == '"':
                close = text.find("(", i + 2)
                if close != -1:
                    raw_delim = ")" + text[i + 2:close] + '"'
                    state = RAWSTR
                    for j in range(i, close + 1):
                        if text[j] != "\n":
                            out[j] = " "
                    i = close + 1
                    continue
            if c == '"':
                state = STR
                i += 1
                continue
            if c == "'":
                state = CHR
                i += 1
                continue
            i += 1
            continue
        if state == LINE:
            if c == "\n":
                state = NONE
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == BLOCK:
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = NONE
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        if state in (STR, CHR):
            quote = '"' if state == STR else "'"
            if c == "\\":
                out[i] = " "
                if nxt and nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = NONE
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == RAWSTR:
            if text.startswith(raw_delim, i):
                for j in range(i, i + len(raw_delim)):
                    out[j] = " "
                i += len(raw_delim)
                state = NONE
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
    return "".join(out)


def match_balanced(text: str, open_idx: int, open_ch: str, close_ch: str) -> int:
    """Index just past the bracket matching text[open_idx]; -1 on failure."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


# ---------------------------------------------------------------------------
# Function-body segmentation (shared by guarded-by and spec-complete rules).
#
# Walk the blanked text tracking braces. `namespace`, `class`, `struct`,
# `enum`, `union` and `extern "C"` open *transparent* scopes we descend into
# (so inline methods are seen individually); any other top-level `{` opens an
# opaque function body captured whole, lambdas and control flow included.
# ---------------------------------------------------------------------------

@dataclass
class FuncBody:
    sig: str          # text from previous ';' / '{' / '}' up to the body '{'
    body: str
    sig_start: int    # offset of sig in file
    body_start: int   # offset of '{' in file
    cls: str          # innermost enclosing class/struct name, or ""


# Between the scope keyword and the name there may be attribute macros:
# `class CAPABILITY("mutex") Mutex`, `class alignas(64) Foo`. The all-caps
# alternative must not eat the first letter of a CamelCase name, hence the
# (?![a-z0-9]) lookahead.
SCOPE_RE = re.compile(
    r"\b(namespace|class|struct|enum|union)\b(?:\s+(?:class|struct))?"
    r"(?:\s+(?:alignas\s*\([^)]*\)|\[\[[^\]]*\]\]"
    r"|[A-Z_]+(?![a-z0-9])(?:\s*\([^)]*\))?))*"
    r"\s*([A-Za-z_]\w*)?")


def segment_functions(code: str) -> list[FuncBody]:
    funcs: list[FuncBody] = []
    scope_stack: list[str | None] = []  # class name, or None for non-class
    i, n = 0, len(code)
    seg_start = 0  # start of the current "declaration segment"
    while i < n:
        c = code[i]
        if c in ";":
            seg_start = i + 1
            i += 1
            continue
        if c == "}":
            if scope_stack:
                scope_stack.pop()
            seg_start = i + 1
            i += 1
            continue
        if c == "{":
            seg = code[seg_start:i]
            m = None
            for sm in SCOPE_RE.finditer(seg):
                m = sm  # last scope keyword in the segment wins
            # A scope keyword makes this brace transparent only when the
            # segment is not a function definition (no parameter list after
            # the scope name — `struct X {` vs `X make_x() {`).
            is_transparent = False
            if m is not None:
                after = seg[m.end():]
                if "(" not in after or after.lstrip().startswith(
                        (":", "final", "{")):
                    is_transparent = True
            if is_transparent:
                kw, name = m.group(1), m.group(2)
                scope_stack.append(name if kw in ("class", "struct", "union")
                                   else None)
                seg_start = i + 1
                i += 1
                continue
            end = match_balanced(code, i, "{", "}")
            if end == -1:
                break
            cls = next((s for s in reversed(scope_stack) if s), "")
            funcs.append(FuncBody(sig=seg, body=code[i:end],
                                  sig_start=seg_start, body_start=i, cls=cls))
            # `void f() { ... } void g() {` — next segment starts after '}'.
            seg_start = end
            i = end
            continue
        i += 1
    return funcs


FUNC_NAME_RE = re.compile(r"(~?[A-Za-z_]\w*)\s*(?:::\s*(~?[A-Za-z_]\w*)\s*)?\($")


MACRO_HEAD_RE = re.compile(r"^[A-Z][A-Z0-9_]{2,}$")


def func_name_of(sig: str) -> tuple[str, str]:
    """(qualifier, name) of the function a signature introduces; best-effort."""
    # First '(' that is not part of an attribute/annotation macro.
    p = sig.find("(")
    while p != -1:
        head = sig[:p].rstrip()
        m = re.search(r"(~?[A-Za-z_]\w*)$", head)
        if m:
            name = m.group(1)
            # ALL-CAPS head = an annotation macro prefixing the declaration
            # (GDUR_HOT_PATH("..."), GDUR_CONFINED("...")): skip past its
            # argument list and keep looking for the real function name.
            if MACRO_HEAD_RE.match(name):
                p = sig.find("(", p + 1)
                continue
            rest = head[:m.start()].rstrip()
            qual = ""
            if rest.endswith("::"):
                qm = re.search(r"([A-Za-z_]\w*)\s*::$", rest)
                if qm:
                    qual = qm.group(1)
            return qual, name
        p = sig.find("(", p + 1)
    return "", ""


# ---------------------------------------------------------------------------
# Per-rule checkers
# ---------------------------------------------------------------------------

def check_patterns(sf: SourceFile, patterns, rule: str, why: str,
                   diags: list[Diag]) -> None:
    for rx, label in patterns:
        for m in rx.finditer(sf.code):
            line = sf.line_of(m.start())
            diags.append(Diag(sf.path, line, rule, f"{label} {why}"))


UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")


def collect_unordered_names(files: list[SourceFile]) -> set[str]:
    """Names of variables/members declared with an unordered container type.

    Declarations in src/live/ are skipped: live-runtime types are not visible
    to the determinism-scoped directories, and their (ordinary) names would
    otherwise shadow deterministic containers elsewhere (e.g. a vector named
    `reads`).
    """
    names: set[str] = set()
    for sf in files:
        if sf.path.startswith("src/live/"):
            continue
        for m in UNORDERED_DECL_RE.finditer(sf.code):
            lt = sf.code.find("<", m.start())
            end = match_balanced(sf.code, lt, "<", ">")
            if end == -1:
                continue
            tail = sf.code[end:end + 160]
            dm = re.match(r"\s*(?:&|\*)?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|GUARDED_BY|\))",
                          tail)
            if dm:
                names.add(dm.group(1))
    return names


FOR_RE = re.compile(r"\bfor\s*\(")


def check_unordered_iter(sf: SourceFile, unordered: set[str],
                         diags: list[Diag]) -> None:
    for m in FOR_RE.finditer(sf.code):
        lp = sf.code.find("(", m.start())
        end = match_balanced(sf.code, lp, "(", ")")
        if end == -1:
            continue
        inner = sf.code[lp + 1:end - 1]
        # Range-for: a top-level ':' that is not '::'.
        depth = 0
        colon = -1
        k = 0
        while k < len(inner):
            ch = inner[k]
            if ch in "(<[":
                depth += 1
            elif ch in ")>]":
                depth -= 1
            elif ch == ":" and depth == 0:
                if k + 1 < len(inner) and inner[k + 1] == ":":
                    k += 2
                    continue
                if k > 0 and inner[k - 1] == ":":
                    k += 1
                    continue
                colon = k
                break
            k += 1
        if colon == -1:
            continue
        expr = inner[colon + 1:].strip()
        tm = re.search(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?\s*$", expr)
        if not tm:
            continue
        tail_name = tm.group(1)
        if tail_name in unordered:
            line = sf.line_of(lp + 1 + colon)
            diags.append(Diag(
                sf.path, line, "determinism/unordered-iter",
                f"range-for over unordered container '{tail_name}': hash order "
                f"is nondeterministic across runs/platforms; iterate a sorted "
                f"copy of the keys or switch to an ordered container"))


def check_hot_path(sf: SourceFile, diags: list[Diag]) -> None:
    for fn in segment_functions(sf.code):
        _qual, name = func_name_of(fn.sig)
        if not name or not HOT_PATH_FN_RE.match(name):
            continue
        for rx, label in HOT_PATH_PATTERNS:
            for m in rx.finditer(fn.body):
                line = sf.line_of(fn.body_start + m.start())
                diags.append(Diag(
                    sf.path, line, "obs/hot-path-alloc",
                    f"{label} inside telemetry hot path {name}(): the record "
                    f"path's contract (obs/stats.h) is one relaxed atomic op "
                    f"— no allocation, no lock, no clock; move the work to "
                    f"the aggregation side or rename the function if it is "
                    f"not a record path"))


def check_dispatch_alloc(sf: SourceFile, diags: list[Diag]) -> None:
    for fn in segment_functions(sf.code):
        _qual, name = func_name_of(fn.sig)
        if not name or not DISPATCH_FN_RE.match(name):
            continue
        for rx, label in DISPATCH_ALLOC_PATTERNS:
            for m in rx.finditer(fn.body):
                line = sf.line_of(fn.body_start + m.start())
                diags.append(Diag(
                    sf.path, line, "front/dispatch-alloc",
                    f"{label} inside reactor demux function {name}(): the "
                    f"wait/re-arm/fan-out path is allocation-free by "
                    f"contract (front/reactor.h); preallocate the buffer or "
                    f"move the work into a per-connection read/write "
                    f"handler"))


# Shard affinity (thread/shard-affinity). Two textual contracts from the
# sharded certification pipeline (DESIGN.md §14):
#   (a) certify functions gate every footprint walk on ctx.owns(obj) so the
#       per-shard sub-votes AND-combine to exactly the serial verdict;
#   (b) per-shard scheduling state stays inside the cluster layer — lanes,
#       shard mailboxes, and shard mutexes are indexed by (site, shard) and
#       are safe only behind the run_certify/run_apply/with_apply_exclusion
#       seam, which owns the deterministic lock order.
CERT_CTX_PARAM_RE = re.compile(r"\bCertContext\s*&\s*([A-Za-z_]\w*)")
FOOTPRINT_WALK_RE_TMPL = r"\b%s\s*\.\s*txn\s*\.\s*(?:ws|reads)\b"
SHARD_STATE_RE = re.compile(
    r"\b(lane_free_|shard_mailboxes_|shard_mu_|shard_threads_)\b")
SHARD_STATE_OWNERS = ("src/core/cluster.h", "src/core/cluster.cpp",
                      "src/live/live_cluster.h", "src/live/live_cluster.cpp")


def check_shard_affinity(sf: SourceFile, diags: list[Diag]) -> None:
    for fn in segment_functions(sf.code):
        pm = CERT_CTX_PARAM_RE.search(fn.sig)
        if not pm:
            continue
        p = pm.group(1)
        foot = re.search(FOOTPRINT_WALK_RE_TMPL % re.escape(p), fn.body)
        if not foot:
            continue
        if re.search(r"\b" + re.escape(p) + r"\s*\.\s*owns\s*\(", fn.body):
            continue
        _qual, name = func_name_of(fn.sig)
        line = sf.line_of(fn.body_start + foot.start())
        diags.append(Diag(
            sf.path, line, "thread/shard-affinity",
            f"certifier {name or '<certify fn>'}() walks the transaction "
            f"footprint without gating on {p}.owns(obj): under "
            f"shards_per_site > 1 every shard re-judges the full footprint "
            f"and the sub-votes no longer AND-combine to the serial verdict; "
            f"skip foreign slices with 'if (!{p}.owns(o)) continue;'"))
    if sf.path not in SHARD_STATE_OWNERS:
        for m in SHARD_STATE_RE.finditer(sf.code):
            line = sf.line_of(m.start())
            diags.append(Diag(
                sf.path, line, "thread/shard-affinity",
                f"'{m.group(1)}' is per-shard scheduling state owned by the "
                f"cluster layer (core/cluster.*, live/live_cluster.*); other "
                f"code must route through run_certify()/run_apply()/"
                f"with_apply_exclusion(), which own the deterministic shard "
                f"lock order"))


def check_hardcoded_sites(sf: SourceFile, diags: list[Diag]) -> None:
    for m in HARDCODED_SITES_RE.finditer(sf.code):
        line = sf.line_of(m.start())
        diags.append(Diag(
            sf.path, line, "membership/hardcoded-sites",
            "loop over the whole site universe: destinations and quorums "
            "must flow through the MembershipView of the transaction's "
            "epoch (view(e).members / view(e).filter(...)), or the loop "
            "includes retired sites and misses joiners; if it is genuinely "
            "membership-independent, allow() it with the reason"))


SPEC_FN_RE = re.compile(r"\bProtocolSpec\b")
FRESH_SPEC_RE = re.compile(r"\b(?:core\s*::\s*)?ProtocolSpec\s+([A-Za-z_]\w*)\s*;")
INHERIT_RE = re.compile(r"\bauto\s+([A-Za-z_]\w*)\s*=\s*[A-Za-z_][\w:]*\s*\(")


def check_spec_complete(sf: SourceFile, diags: list[Diag]) -> None:
    for fn in segment_functions(sf.code):
        if not SPEC_FN_RE.search(fn.sig):
            continue  # not a ProtocolSpec-returning factory
        fresh = FRESH_SPEC_RE.search(fn.body)
        if fresh is None:
            continue  # inherits a named default (auto s = base();) or returns
        if INHERIT_RE.search(fn.body):
            # Mixed style: fresh decl *and* inheritance — still require the
            # fresh spec to be complete; fall through.
            pass
        var = fresh.group(1)
        assigned = set(re.findall(
            r"\b" + re.escape(var) + r"\s*\.\s*([A-Za-z_]\w*)\s*=", fn.body))
        missing = [p for p in SPEC_POINTS if p not in assigned]
        if missing:
            _, name = func_name_of(fn.sig)
            line = sf.line_of(fn.body_start + fresh.start())
            diags.append(Diag(
                sf.path, line, "protocol/spec-complete",
                f"ProtocolSpec '{var}' in {name or 'factory'}() leaves "
                f"realization point(s) {', '.join(missing)} at their silent "
                f"defaults; assign each explicitly or inherit a named default "
                f"with 'auto {var} = <base>();'"))


GUARDED_DECL_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?GUARDED_BY\s*\(([^)]*)\)")
REQUIRES_RE = re.compile(r"\bREQUIRES(?:_SHARED)?\s*\(([^)]*)\)")


def last_ident(expr: str) -> str:
    ids = re.findall(r"[A-Za-z_]\w*", expr)
    return ids[-1] if ids else ""


@dataclass
class GuardedVar:
    name: str
    mu: str
    cls: str   # declaring class ("" for namespace scope)


def collect_guarded(sf: SourceFile) -> list[GuardedVar]:
    out = []
    scope_stack: list[str | None] = []
    i, n = 0, len(sf.code)
    seg_start = 0
    decls = [(m.start(), m.group(1), last_ident(m.group(2)))
             for m in GUARDED_DECL_RE.finditer(sf.code)]
    if not decls:
        return out
    # Class attribution: walk scopes the same way segment_functions does.
    pos_cls: dict[int, str] = {}
    idx = 0
    while i < n and idx < len(decls):
        c = sf.code[i]
        if c == ";":
            seg_start = i + 1
        elif c == "}":
            if scope_stack:
                scope_stack.pop()
            seg_start = i + 1
        elif c == "{":
            seg = sf.code[seg_start:i]
            m = None
            for sm in SCOPE_RE.finditer(seg):
                m = sm
            is_transparent = False
            if m is not None:
                after = seg[m.end():]
                if "(" not in after or after.lstrip().startswith(
                        (":", "final", "{")):
                    is_transparent = True
            if is_transparent:
                kw, name = m.group(1), m.group(2)
                scope_stack.append(name if kw in ("class", "struct", "union")
                                   else None)
                seg_start = i + 1
            else:
                end = match_balanced(sf.code, i, "{", "}")
                if end == -1:
                    break
                while idx < len(decls) and decls[idx][0] < end:
                    off, nm, mu = decls[idx]
                    if off >= i:  # decl inside a function body: local static
                        cls = next((s for s in reversed(scope_stack) if s), "")
                        pos_cls[off] = cls
                    idx += 1
                i = end
                seg_start = end
                continue
        while idx < len(decls) and decls[idx][0] <= i:
            off, nm, mu = decls[idx]
            cls = next((s for s in reversed(scope_stack) if s), "")
            pos_cls[off] = cls
            idx += 1
        i += 1
    for off, nm, mu in decls:
        cls = pos_cls.get(off, next((s for s in reversed(scope_stack) if s), ""))
        out.append(GuardedVar(name=nm, mu=mu, cls=cls))
    return out


def collect_requires_decls(files: list[SourceFile]) -> dict[str, set[str]]:
    """Method name -> mutexes from REQUIRES(...) on any declaration.

    Out-of-line definitions in a .cpp rarely repeat the REQUIRES() that the
    header declaration carries, so the lockset check honors the annotation
    wherever it appears.
    """
    req: dict[str, set[str]] = {}
    for sf in files:
        for m in re.finditer(
                r"([A-Za-z_]\w*)\s*\([^;{}]*\)[^;{}]*?REQUIRES(?:_SHARED)?"
                r"\s*\(([^)]*)\)", sf.code):
            name = m.group(1)
            mus = {last_ident(p) for p in m.group(2).split(",") if p.strip()}
            req.setdefault(name, set()).update(mus)
    return req


def lock_held_in(body: str, mu: str) -> bool:
    """Does the body take a MutexLock (or adopt one) on `mu`?"""
    if re.search(r"\bMutexLock\s+\w+\s*\(\s*&[\w.\->]*\b" + re.escape(mu)
                 + r"\b\s*\)", body):
        return True
    # CondVar::wait(lock) predicates annotated REQUIRES(mu) inside a locked
    # body are covered by the body-level check above.
    return False


def check_guarded_by(sf: SourceFile, guarded: list[GuardedVar],
                     requires_map: dict[str, set[str]],
                     diags: list[Diag]) -> None:
    if not guarded:
        return
    by_cls: dict[str, list[GuardedVar]] = {}
    for g in guarded:
        by_cls.setdefault(g.cls, []).append(g)
    for fn in segment_functions(sf.code):
        if "NO_THREAD_SAFETY_ANALYSIS" in fn.sig:
            continue
        qual, name = func_name_of(fn.sig)
        cls = qual or fn.cls
        # Constructors/destructors: the object is not yet (no longer) shared.
        if name and (name.startswith("~") or name == cls):
            continue
        sig_req = {last_ident(p)
                   for m in REQUIRES_RE.finditer(fn.sig)
                   for p in m.group(1).split(",") if p.strip()}
        decl_req = requires_map.get(name, set())
        # Candidate guarded vars: same class, or namespace-scope ones.
        cands = by_cls.get(cls, []) + by_cls.get("", [])
        for g in cands:
            m = re.search(r"(?<![.\w])(?:this\s*->\s*)?" + re.escape(g.name)
                          + r"\b", fn.body)
            if not m:
                continue
            if g.mu in sig_req or g.mu in decl_req:
                continue
            if lock_held_in(fn.body, g.mu):
                continue
            line = sf.line_of(fn.body_start + m.start())
            diags.append(Diag(
                sf.path, line, "thread/guarded-by",
                f"'{g.name}' is GUARDED_BY({g.mu}) but "
                f"{cls + '::' if cls else ''}{name or '<function>'} touches it "
                f"with no MutexLock({g.mu}) in scope and no REQUIRES({g.mu}) "
                f"annotation"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def norm(path: str) -> str:
    return path.replace(os.sep, "/")


def in_scope_wallclock(path: str) -> bool:
    return (path.startswith("src/")
            and not path.startswith(("src/live/", "src/front/")))


def in_scope_unordered(path: str) -> bool:
    return path.startswith(UNORDERED_DIRS)


def in_scope_blocking(path: str) -> bool:
    # Live-runtime threads, and the group-communication handlers that run on
    # the site mailbox threads.
    if path.startswith(("src/live/", "src/comm/")):
        return True
    # Front-door dispatch path: everything under src/front/ except the
    # reactor (its wait owns blocking), the client library (client-side code
    # blocks by design) and signals.cpp (interruptible_sleep).
    return (path.startswith("src/front/")
            and os.path.basename(path) not in (
                "reactor.cpp", "client.cpp", "client.h", "signals.cpp"))


def in_scope_dispatch(path: str) -> bool:
    return path == "src/front/reactor.cpp"


def in_scope_spec(path: str) -> bool:
    return path.startswith("src/protocols/") and path.endswith(".cpp")


def in_scope_membership(path: str) -> bool:
    return path.startswith(MEMBERSHIP_DIRS)


def in_scope_hot_path(path: str) -> bool:
    return path.startswith("src/obs/")


def in_scope_shard(path: str) -> bool:
    return path.startswith(("src/core/", "src/protocols/", "src/live/"))


def run_rules(files: list[SourceFile],
              check_allows: bool = False) -> list[Diag]:
    diags: list[Diag] = []
    unordered = collect_unordered_names(files)
    requires_map = collect_requires_decls(files)
    # Guarded vars are checked in the declaring unit (same basename stem):
    # header decls are enforced in the sibling .cpp and vice versa.
    guarded_by_unit: dict[str, list[GuardedVar]] = {}
    for sf in files:
        unit = norm(os.path.splitext(sf.path)[0])
        guarded_by_unit.setdefault(unit, []).extend(collect_guarded(sf))
    for sf in files:
        if in_scope_wallclock(sf.path):
            check_patterns(
                sf, WALLCLOCK_PATTERNS, "determinism/wallclock",
                "reads ambient entropy/time: the simulator must be a pure "
                "function of (seed, config); take the value from SimTime/Rng "
                "or move the code under src/live/", diags)
        if in_scope_unordered(sf.path):
            check_unordered_iter(sf, unordered, diags)
        if in_scope_blocking(sf.path):
            check_patterns(
                sf, BLOCKING_PATTERNS, "live/blocking-call",
                "can block a live-runtime thread (site mailbox, reactor); "
                "only the reactor's wait and a mailbox's wait for its next "
                "task or deadline may block", diags)
        if in_scope_dispatch(sf.path):
            check_dispatch_alloc(sf, diags)
        if in_scope_spec(sf.path):
            check_spec_complete(sf, diags)
        if in_scope_membership(sf.path):
            check_hardcoded_sites(sf, diags)
        if in_scope_hot_path(sf.path):
            check_hot_path(sf, diags)
        if in_scope_shard(sf.path):
            check_shard_affinity(sf, diags)
        unit = norm(os.path.splitext(sf.path)[0])
        check_guarded_by(sf, guarded_by_unit.get(unit, []), requires_map,
                         diags)
    # Apply allow comments, then surface malformed ones.
    out: list[Diag] = []
    used_allows: set[tuple[str, int]] = set()
    by_file = {sf.path: sf for sf in files}
    for d in sorted(diags, key=lambda d: (d.path, d.line, d.rule)):
        sf = by_file[d.path]
        suppressed = False
        for ln in (d.line, d.line - 1):
            entry = sf.allows.get(ln)
            if entry and d.rule in entry[0] and entry[1]:
                suppressed = True
                used_allows.add((sf.path, ln))
                break
        if not suppressed:
            out.append(d)
    for sf in files:
        for ln in sf.bad_allows:
            rules, reason = sf.allows[ln]
            if not reason:
                out.append(Diag(sf.path, ln, "lint/bad-allow",
                                "allow() without a reason; write "
                                "'// gdur-lint: allow(rule) why it is safe'"))
            for r in rules:
                if r not in RULES:
                    out.append(Diag(sf.path, ln, "lint/bad-allow",
                                    f"allow() names unknown rule '{r}'"))
    if check_allows:
        # Stale suppressions: a well-formed allow that matched no diagnostic
        # this run. Bad allows are already reported above; skip them.
        for sf in files:
            for ln, (rules, _reason) in sorted(sf.allows.items()):
                if ln in sf.bad_allows or (sf.path, ln) in used_allows:
                    continue
                out.append(Diag(
                    sf.path, ln, "lint/stale-allow",
                    f"allow({', '.join(rules)}) suppressed nothing — the "
                    f"rule no longer fires on the next line; delete the "
                    f"comment so it cannot silently mask a future "
                    f"regression elsewhere in the function"))
    out.sort(key=lambda d: (d.path, d.line, d.rule))
    return out


def load_tree(root: str) -> list[SourceFile]:
    files = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fname in sorted(filenames):
            if not fname.endswith((".h", ".cpp", ".hpp", ".cc")):
                continue
            full = os.path.join(dirpath, fname)
            rel = norm(os.path.relpath(full, root))
            with open(full, encoding="utf-8") as f:
                files.append(SourceFile(path=rel, raw=f.read()))
    files.sort(key=lambda sf: sf.path)
    return files


def check_compile_commands(root: str, db_path: str,
                           files: list[SourceFile]) -> list[Diag]:
    try:
        with open(db_path, encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        return [Diag(norm(os.path.relpath(db_path, root)), 1,
                     "build/untracked-tu",
                     f"cannot read compile_commands.json: {e}")]
    compiled = set()
    for e in entries:
        p = e.get("file", "")
        if not os.path.isabs(p):
            p = os.path.join(e.get("directory", ""), p)
        compiled.add(norm(os.path.normpath(p)))
    diags = []
    for sf in files:
        if not sf.path.endswith((".cpp", ".cc")):
            continue
        full = norm(os.path.normpath(os.path.join(root, sf.path)))
        if full not in compiled:
            diags.append(Diag(sf.path, 1, "build/untracked-tu",
                              "translation unit missing from "
                              "compile_commands.json — is the build glob "
                              "stale? re-run cmake"))
    return diags


def self_test(corpus_dir: str) -> int:
    failures = 0
    cases = []
    for sub in ("good", "bad"):
        d = os.path.join(corpus_dir, sub)
        if not os.path.isdir(d):
            continue
        for fname in sorted(os.listdir(d)):
            if fname.endswith((".cpp", ".h")):
                cases.append((sub, os.path.join(d, fname)))
    if not cases:
        print(f"gdur-lint self-test: no corpus under {corpus_dir}",
              file=sys.stderr)
        return 1
    for sub, full in cases:
        with open(full, encoding="utf-8") as f:
            raw = f.read()
        m = LINT_AS_RE.search(raw)
        lint_path = m.group(1) if m else "src/core/" + os.path.basename(full)
        sf = SourceFile(path=lint_path, raw=raw)
        got = {(d.line, d.rule) for d in run_rules([sf], check_allows=True)}
        want = set()
        if sub == "bad":
            for i, line in enumerate(raw.splitlines(), start=1):
                for em in EXPECT_RE.finditer(line):
                    want.add((i, em.group(1)))
        if got != want:
            failures += 1
            print(f"SELF-TEST FAIL {full} (as {lint_path})")
            for line, rule in sorted(want - got):
                print(f"  missing: line {line}: {rule}")
            for line, rule in sorted(got - want):
                print(f"  spurious: line {line}: {rule}")
        else:
            print(f"self-test ok: {sub}/{os.path.basename(full)} "
                  f"({len(want)} expected diagnostic(s))")
    if failures:
        print(f"gdur-lint self-test: {failures}/{len(cases)} case(s) failed")
        return 1
    print(f"gdur-lint self-test: all {len(cases)} case(s) passed")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="gdur-lint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above this "
                         "script)")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json; every src/ TU must "
                         "appear in it")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules over tools/gdur_lint/corpus/ and "
                         "verify expected diagnostics")
    ap.add_argument("--check-allows", action="store_true",
                    help="also report allow() comments that suppressed "
                         "nothing (lint/stale-allow)")
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(here))

    if args.self_test:
        return self_test(os.path.join(here, "corpus"))

    files = load_tree(root)
    if not files:
        print(f"gdur-lint: no sources under {root}/src", file=sys.stderr)
        return 2
    diags = run_rules(files, check_allows=args.check_allows)
    if args.compile_commands:
        diags += check_compile_commands(root, args.compile_commands, files)
        diags.sort(key=lambda d: (d.path, d.line, d.rule))
    for d in diags:
        print(f"{d.path}:{d.line}: {d.rule}: {d.msg}")
    if diags:
        print(f"gdur-lint: {len(diags)} diagnostic(s)", file=sys.stderr)
        return 1
    print(f"gdur-lint: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
