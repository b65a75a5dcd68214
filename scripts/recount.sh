#!/usr/bin/env bash
# Size census by the rule CHANGES.md has used since PR 13, so before/after
# numbers in a subtraction PR come from one place.
# Usage: scripts/recount.sh   (from any directory; prints one line per count)
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines: everything above each file's first `#[cfg(...)]` that
# names `test` (`#[cfg(test)]`, `#[cfg(all(test, ...))]`, ...).
find crates/*/src src -name '*.rs' -print0 | sort -z \
  | xargs -0 awk 'FNR == 1 {t = 0} /^ *#\[cfg\((.*[^a-z_])?test([^a-z_].*)?\)\]/ {t = 1} !t {n++} END {print "non-test lines:", n}'

# The network crate on its own: a peer reaches its code, so its non-test
# `.unwrap()`/`.expect(` sites are counted too (check.sh holds a ceiling).
find crates/net/src -name '*.rs' -print0 | sort -z \
  | xargs -0 awk 'FNR == 1 {t = 0} /^ *#\[cfg\((.*[^a-z_])?test([^a-z_].*)?\)\]/ {t = 1}
                  !t {n++; s += gsub(/\.unwrap\(\)|\.expect\(/, "&")}
                  END {print "crates/net/src non-test lines:", n; print "crates/net/src unwrap/expect sites:", s}'

# The merge kernel and the collector, each on its own, by the same rule.
for f in crates/core/src/merge.rs crates/net/src/collector.rs; do
  awk '/^ *#\[cfg\((.*[^a-z_])?test([^a-z_].*)?\)\]/ {t = 1} !t {n++}
       END {print FILENAME " non-test lines:", n}' "$f"
done

# Pub fields of every `pub struct *Config` / `*Options` (names may hold
# digits: `Scala2Config`, `ns_per_byte_x1000`).
find crates/*/src src -name '*.rs' -print0 | sort -z \
  | xargs -0 awk '/^pub struct [A-Za-z0-9]*(Config|Options)[ <{]/ {s = 1} s && /^    pub [a-z0-9_]+:/ {n++} /^}/ {s = 0}
                  END {print "Config/Options pub fields:", n}'

echo "CLI flag literals: $(grep -oE '"--[a-z-]+"' src/bin/cypress.rs | sort -u | wc -l)"
echo "env::var sites: $(grep -rn 'env::var' crates/*/src src | wc -l)"
echo "Cargo features: $(grep -l '^\[features\]' Cargo.toml crates/*/Cargo.toml | wc -l || true)"
echo "files containing unsafe: $(grep -rl unsafe crates/*/src src | tr '\n' ' ')"
