#!/usr/bin/env bash
# Everything CI would run for this package, without touching CI: format,
# lints, unit tests and a --quick run of every workload (both trace
# modes), then the repository's own lint and test suite, to confirm the
# new directory does not disturb them. Run from anywhere.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
manifest="$root/benches/e2e/Cargo.toml"
cd "$root"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload all --seed 1 --quick --trace "$trace" | grep -v '^{'
done

cargo run --offline -p amcad-lint -- --deny
cargo test --offline --workspace -q
echo "check.sh: all green"
