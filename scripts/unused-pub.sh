#!/bin/sh
# Prints two reports and exits 1 when either is non-empty; prints
# nothing and exits 0 otherwise. Run from the repository root:
# `make unused-pub`. Both scans are by name.
#
# 1. Unused: every `pub` item (fn, const fn, struct, enum, type, const,
#    static, trait) defined under crates/ that no non-test code names
#    and that is not on the allow-list below. An item is a `const fn`
#    only when its definition line says `const fn`. Users are the .rs
#    files under crates/, src/, examples/ and perfbench/, minus test
#    code: tests/ and benches/ directories, and everything from a
#    file's first `#[cfg(test)] mod` on. Comment lines (`//`, `///`,
#    `//!`), `use` and `pub use` lines (with the continuation lines of a
#    braced list) and lines that define an item of the same name do not
#    count as uses, so a re-export alone keeps nothing alive. A `pub`
#    item that a test module or tests/ file names, and nothing else, is
#    reported; one gated by its own `#[cfg(test)]` is test code and is
#    not.
#
# 2. Crate-local: every `pub fn`, `pub const fn`, `pub const` and
#    `pub static` under crates/*/src that no file outside its own crate
#    names; it should be `pub(crate)`. Outside means every other .rs
#    file: other crates (test modules included), tests/ and benches/
#    directories, crates/bench/src/bin, src/, examples/ and perfbench/;
#    any mention counts, a doc link or `use` line included. Types and
#    traits are left out, because another crate can use a type it never
#    names (a returned value, a public field).
set -eu

# Deliberate `pub` items without a non-test user: name, then the reason.
# An entry that gains a non-test user is reported as stale.
allow=$(cat <<'LIST'
run_until_shuffled   System's shuffled same-instant event loop, the interleaving fuzzer's seam
is_clean             CheckReport's verdict, read by the fsck unit and property tests
paper_table4         the paper's Table 4 disk parameters, the reference the calibration tests compare to
st32550n_linear      the paper's linear seek model, compared with the measured curve by tests and benches
pinned_frames        MovieCache's pin count, which the pin-leak property test must observe
free_bytes           Ufs free space, which the fragment-cycle and remove tests use to catch leaked blocks
fast_lan             the uncontended link of the delivery equivalence tests (tests/net_delivery.rs)
set_enabled          switches the post-mortem trace ring on; every run leaves it off unless a test asks
records              reads the post-mortem trace ring back, which only a test that enabled it does
modeled_travel       the seek-distance model cras-core's sweep-order tests compare request orders with
parity_of            the XOR parity encoder, the byte-level reference cras-core's degraded-read tests check against
LIST
)

files_all=$(find crates src tests examples perfbench -name '*.rs' -not -path '*/target/*' | sort)
files=$(printf '%s\n' "$files_all" | grep -v -e '/tests/' -e '^tests/' -e '/benches/')

report=$(printf '%s\n' "$allow" | FILES="$files" awk '
  BEGIN { nf = split(ENVIRON["FILES"], list, "\n") }
  { allowed[$1] = 1 }
  END {
    for (i = 1; i <= nf; i++) {
      f = list[i]
      lib = (f ~ /^crates\//)
      lineno = 0
      gated = 0
      inuse = 0
      while ((getline line < f) > 0) {
        lineno++
        if (gated && line ~ /^mod /) break
        if (line ~ /^[ \t]*\/\//) continue
        if (inuse || line ~ /^[ \t]*(pub(\([a-z]+\))? )?use /) {
          inuse = (line !~ /;/)
          gated = 0
          continue
        }
        def = ""
        if (match(line, /(const fn|fn|struct|enum|type|const|static|trait) [A-Za-z_][A-Za-z0-9_]*/)) {
          def = substr(line, RSTART, RLENGTH)
          sub(/.* /, "", def)
          if (lib && !gated && line ~ /^[ \t]*pub (const fn|fn|struct|enum|type|const|static|trait) /) {
            if (!(def in where)) where[def] = f ":" lineno
          }
        }
        if (line ~ /^[ \t]*#\[cfg\(test\)\]/) gated = 1
        else if (line !~ /^[ \t]*#\[/) gated = 0
        n = split(line, words, /[^A-Za-z0-9_]+/)
        for (w = 1; w <= n; w++) if (words[w] != def) used[words[w]] = 1
      }
      close(f)
    }
    for (name in where)
      if (!(name in used) && !(name in allowed))
        print "unused pub item: " name " (" where[name] ")"
    for (name in allowed)
      if (!(name in where) || (name in used))
        print "stale allow-list entry: " name
  }' | sort)

local=$(printf '%s\n' "$files_all" | awk '
  {
    f = $0
    owner = "-"
    if (f ~ /^crates\/[^\/]+\/src\// && f !~ /^crates\/bench\/src\/bin\//) {
      owner = f
      sub(/^crates\//, "", owner)
      sub(/\/.*/, "", owner)
    }
    owners[owner] = 1
    lineno = 0
    while ((getline line < f) > 0) {
      lineno++
      if (owner != "-" && match(line, /^[ \t]*pub (const fn|fn|const|static) [A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/.* /, "", name)
        key = owner SUBSEP name
        if (!(key in where)) where[key] = f ":" lineno
      }
      n = split(line, words, /[^A-Za-z0-9_]+/)
      for (w = 1; w <= n; w++) used[words[w], owner] = 1
    }
    close(f)
  }
  END {
    for (key in where) {
      split(key, k, SUBSEP)
      outside = 0
      for (o in owners) if (o != k[1] && ((k[2], o) in used)) { outside = 1; break }
      if (!outside) print "crate-local pub item: " k[2] " (" where[key] ")"
    }
  }' | sort)

if [ -n "$report$local" ]; then
  printf '%s\n' "$report" "$local" | sed '/^$/d'
  exit 1
fi
